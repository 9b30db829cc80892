from fractions import Fraction

import numpy as np
import pytest

from platevem.polynomials import (
    _derivative_factors,
    centered_power_moments,
    exponent_table,
    monomial_rows,
    monomials,
    power_table,
    space_dim,
)

from oracles import ScaledMonomialBasis


def pow_eval(basis, points, derivative=(0, 0)):
    """Basis values by elementwise ``pow``, the formula the power tables replaced."""
    xi = (points[:, 0] - basis.center[0]) / basis.h
    eta = (points[:, 1] - basis.center[1]) / basis.h
    i, j = derivative
    fac = _derivative_factors(basis.order, i, j) / basis.h ** (i + j)
    ax = np.maximum(basis.exponents[:, 0] - i, 0)
    by = np.maximum(basis.exponents[:, 1] - j, 0)
    vals = xi[:, None] ** ax[None, :] * eta[:, None] ** by[None, :]
    return vals * fac[None, :]


def test_space_dim():
    assert space_dim(-2) == 0
    assert space_dim(-1) == 0
    assert space_dim(0) == 1
    assert space_dim(2) == 6
    assert space_dim(5) == 21


def test_exponent_order():
    assert exponent_table(2).tolist() == [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]]


def test_exponent_table_is_shared_and_read_only():
    table = exponent_table(3)
    assert table is exponent_table(3)
    assert ScaledMonomialBasis(np.zeros(2), 1.0, 3).exponents is table
    assert table.tolist() == [
        [0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2], [3, 0], [2, 1], [1, 2], [0, 3]
    ]
    assert not table.flags.writeable
    assert exponent_table(0).shape == (1, 2)


@pytest.mark.parametrize("degree", range(9))
def test_power_table_matches_exact_powers(degree):
    """Power k is within k - 1 ulps of the exact rational power; the test
    allows ``degree`` ulps on every entry, up to degree 8 (the moment degree
    of order 5)."""
    x = np.random.default_rng(degree).uniform(-1.0, 1.0, (40, 3))
    table = power_table(x, degree)
    assert table.shape == x.shape + (degree + 1,)
    assert np.all(table[..., 0] == 1.0)
    for value, row in zip(x.ravel(), table.reshape(-1, degree + 1)):
        for k in range(degree + 1):
            exact = Fraction(float(value)) ** k
            ulp = np.spacing(abs(float(exact)))
            assert abs(Fraction(float(row[k])) - exact) <= degree * Fraction(ulp), (value, k)


@pytest.mark.parametrize("order", range(6))
def test_eval_matches_pow_formula(order):
    """Every derivative (i, j), vanishing ones included, agrees with the
    elementwise ``pow`` formula to 1e-15 relative, entry by entry."""
    rng = np.random.default_rng(order)
    basis = ScaledMonomialBasis(rng.uniform(0.2, 0.8, 2), 0.37, order)
    points = basis.center + basis.h * rng.uniform(-1.0, 1.0, (50, 2))
    for i in range(order + 2):
        for j in range(order + 2):
            got = basis.eval(points, (i, j))
            ref = pow_eval(basis, points, (i, j))
            assert got.shape == ref.shape == (50, basis.dim)
            assert np.all(np.abs(got - ref) <= 1e-15 * np.abs(ref)), (i, j)


def test_constant_monomial_is_one():
    basis = ScaledMonomialBasis(np.array([0.3, 0.4]), 2.0, 3)
    vals = basis.eval(np.array([[1.1, -0.2]]))
    assert vals[0, 0] == 1.0


def test_scaling_convention():
    # the pure x^2 monomial evaluates to 1 one diameter away from the center
    center = np.array([0.25, 0.75])
    h = 0.37
    basis = ScaledMonomialBasis(center, h, 2)
    point = center + np.array([h, 0.0])
    vals = basis.eval(point[None, :])
    k = list(map(tuple, basis.exponents)).index((2, 0))
    assert vals[0, k] == pytest.approx(1.0)


def test_laplacian_of_constant_vanishes():
    basis = ScaledMonomialBasis(np.zeros(2), 1.0, 2)
    lap = basis.laplacian_matrix()
    assert np.all(lap[:, 0] == 0.0)


def test_derivatives_match_symbolic_oracle():
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    center = np.array([0.2, -0.1])
    h = 0.8
    basis = ScaledMonomialBasis(center, h, 4)
    point = np.array([[0.55, 0.3]])
    rng = np.random.default_rng(5)
    for k, (p, q) in enumerate(basis.exponents):
        expr = ((x - center[0]) / h) ** p * ((y - center[1]) / h) ** q
        for der in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (1, 2)]:
            dexpr = sympy.diff(expr, x, der[0], y, der[1])
            expected = float(dexpr.subs({x: point[0, 0], y: point[0, 1]}))
            got = basis.eval(point, der)[0, k]
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12), (k, der)


def test_bilaplacian_of_quartic():
    # Lap^2 of the pure x^4 monomial is the constant 24 / h^4
    h = 0.6
    basis = ScaledMonomialBasis(np.zeros(2), h, 4)
    bilap = basis.bilaplacian_matrix()
    k = list(map(tuple, basis.exponents)).index((4, 0))
    coeffs = bilap[:, k]
    assert coeffs[0] == pytest.approx(24.0 / h**4)
    assert np.abs(coeffs[1:]).max() == 0.0


def test_derivative_matrix_consistent_with_eval():
    basis = ScaledMonomialBasis(np.array([0.1, 0.2]), 1.3, 5)
    pts = np.random.default_rng(0).uniform(-1, 1, (7, 2))
    for der in [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (2, 1)]:
        direct = basis.eval(pts, der)
        via_matrix = basis.eval(pts) @ basis.derivative_matrix(*der)
        assert np.allclose(direct, via_matrix, rtol=1e-12, atol=1e-12)


def test_edge_restriction_exact():
    basis = ScaledMonomialBasis(np.array([0.4, 0.1]), 0.9, 4)
    p0 = np.array([0.1, -0.2])
    p1 = np.array([0.7, 0.5])
    restr = basis.edge_restriction(p0, p1)
    svals = np.linspace(-0.5, 0.5, 9)
    points = 0.5 * (p0 + p1)[None, :] + svals[:, None] * (p1 - p0)[None, :]
    direct = basis.eval(points)
    powers = svals[:, None] ** np.arange(restr.shape[0])[None, :]
    assert np.allclose(powers @ restr, direct, rtol=1e-12, atol=1e-13)


def test_edge_restriction_degree_bound():
    # a 2D polynomial of degree d restricts to a 1D polynomial of degree d:
    # higher coefficient rows vanish identically
    basis = ScaledMonomialBasis(np.zeros(2), 1.0, 5)
    restr = basis.edge_restriction(np.array([0.0, 0.0]), np.array([1.0, 0.3]))
    for k, (p, q) in enumerate(basis.exponents):
        tail = restr[p + q + 1 :, k]
        assert tail.size == 0 or np.abs(tail).max() == 0.0


def test_centered_power_moments():
    sigma = centered_power_moments(5)
    assert sigma[0] == 1.0
    assert sigma[1] == 0.0
    assert sigma[2] == pytest.approx(1.0 / 12.0)
    assert sigma[3] == 0.0
    assert sigma[4] == pytest.approx(1.0 / 80.0)


@pytest.mark.parametrize("degree", range(7))
def test_monomial_rows_are_power_table_products(degree):
    """Both layouts hold bitwise the products of the power tables' entries
    for each basis exponent pair."""
    xi, eta = np.random.default_rng(5).uniform(-1.0, 1.0, (2, 3, 50))
    exps = exponent_table(degree)
    ref = power_table(xi, degree)[..., exps[:, 0]] * power_table(eta, degree)[..., exps[:, 1]]
    rows = monomial_rows(xi, eta, degree)
    assert rows.shape == (space_dim(degree), 3, 50)
    assert np.array_equal(rows, np.moveaxis(ref, -1, 0))
    assert np.array_equal(monomials(xi, eta, degree), ref)
