import numpy as np
import pytest

from platevem.plate import DEFAULT_MATERIAL, MaterialParams
from platevem.quadrature import polygon_rule

from oracles import (
    ScaledMonomialBasis,
    cell_frame,
    edge_operators,
    energy_gram,
    exact_bilinear,
    hessian_seminorm_gram,
    normal_moment_matrix,
    shear_matrix,
)

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
CENTER = np.array([0.5, 0.5])


def coeff_vector(basis, target):
    out = np.zeros(basis.dim)
    for k, (p, q) in enumerate(map(tuple, basis.exponents)):
        if (p, q) in target:
            out[k] = target[(p, q)]
    return out


def unscaled(basis, p, q):
    """Coefficients of the raw monomial x^p y^q in a centered scaled basis."""
    pts = np.random.default_rng(p * 7 + q + 1).uniform(0, 1, (basis.dim + 4, 2))
    vander = basis.eval(pts)
    vals = pts[:, 0] ** p * pts[:, 1] ** q
    coeffs, *_ = np.linalg.lstsq(vander, vals, rcond=None)
    return coeffs


def test_material_rigidity():
    mat = MaterialParams(young=2.1, thickness=0.5, poisson=0.3)
    assert mat.rigidity == pytest.approx(2.1 * 0.125 / (12 * 0.91))
    same = MaterialParams.from_rigidity(mat.rigidity, 0.3, 0.5)
    assert same.rigidity == pytest.approx(mat.rigidity)


def test_material_validation():
    with pytest.raises(ValueError):
        MaterialParams(1.0, 1.0, 0.7)
    with pytest.raises(ValueError):
        MaterialParams(-1.0, 1.0, 0.3)


def test_material_rejects_non_finite_rigidity():
    for rigidity in (np.inf, np.nan, 1e308):
        with pytest.raises(ValueError, match="positive and finite"):
            MaterialParams.from_rigidity(rigidity, 0.3)


def test_bilinear_kills_linears(unit_square_mesh):
    frame = cell_frame(unit_square_mesh, 0)
    basis = ScaledMonomialBasis(frame.centroid, frame.diameter, 3)
    p_lin = coeff_vector(basis, {(1, 0): 0.7, (0, 1): -0.2, (0, 0): 3.0})
    q_any = np.random.default_rng(1).uniform(-1, 1, basis.dim)
    val = exact_bilinear(frame.vertices, frame.star, basis, DEFAULT_MATERIAL, p_lin, q_any)
    assert val == pytest.approx(0.0, abs=1e-13)


def test_bilinear_x2_pairings(unit_square_mesh):
    frame = cell_frame(unit_square_mesh, 0)
    basis = ScaledMonomialBasis(frame.centroid, frame.diameter, 2)
    cx2 = unscaled(basis, 2, 0)
    cy2 = unscaled(basis, 0, 2)
    got_xx = exact_bilinear(frame.vertices, frame.star, basis, DEFAULT_MATERIAL, cx2, cx2)
    got_xy = exact_bilinear(frame.vertices, frame.star, basis, DEFAULT_MATERIAL, cx2, cy2)
    # integrand nu*4 + (1-nu)*4 = 4 and nu*4 respectively, D = 1
    assert got_xx == pytest.approx(4.0, rel=1e-12)
    assert got_xy == pytest.approx(1.2, rel=1e-12)


def test_energy_gram_kernel_rank(small_corpus):
    for mesh in small_corpus[:6]:
        frame = cell_frame(mesh, 0)
        for order in (2, 4):
            basis = ScaledMonomialBasis(frame.centroid, frame.diameter, order)
            rule = polygon_rule(frame.vertices, frame.star, 2 * order)
            gram = energy_gram(basis, rule, DEFAULT_MATERIAL)
            w = np.linalg.eigvalsh(gram)
            scale = abs(w).max()
            assert w.min() >= -1e-12 * scale
            assert int((w < 1e-10 * scale).sum()) == 3


def test_edge_operators_on_square_edge():
    # p = x^2 on the right edge of the unit square: constant moment, no shear
    basis = ScaledMonomialBasis(CENTER, np.sqrt(2.0), 3)
    coeffs = unscaled(basis, 2, 0)
    p0, p1 = np.array([1.0, 0.0]), np.array([1.0, 1.0])
    normal, tangent = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    mnn, shear, twist_ends = edge_operators(
        basis, coeffs, p0, p1, normal, tangent, DEFAULT_MATERIAL
    )
    assert mnn[0] == pytest.approx(2.0, rel=1e-12)
    assert np.abs(mnn[1:]).max() < 1e-12
    assert np.abs(shear).max() < 1e-12
    assert np.abs(twist_ends).max() < 1e-12


def test_edge_operators_linear_vanish():
    basis = ScaledMonomialBasis(CENTER, 1.0, 3)
    coeffs = coeff_vector(basis, {(0, 0): 1.0, (1, 0): -2.0, (0, 1): 0.5})
    mnn, shear, twist_ends = edge_operators(
        basis,
        coeffs,
        np.array([0.0, 0.0]),
        np.array([1.0, 0.0]),
        np.array([0.0, -1.0]),
        np.array([1.0, 0.0]),
        DEFAULT_MATERIAL,
    )
    assert np.abs(mnn).max() < 1e-14
    assert np.abs(shear).max() < 1e-14
    assert np.abs(twist_ends).max() < 1e-14


def test_shear_of_cubic():
    # p = x^3 on the edge x = 1: d_n(Lap p) = 6, tangential third derivative 0
    basis = ScaledMonomialBasis(CENTER, np.sqrt(2.0), 3)
    coeffs = unscaled(basis, 3, 0)
    mnn, shear, _ = edge_operators(
        basis,
        coeffs,
        np.array([1.0, 0.0]),
        np.array([1.0, 1.0]),
        np.array([1.0, 0.0]),
        np.array([0.0, 1.0]),
        DEFAULT_MATERIAL,
    )
    assert shear[0] == pytest.approx(6.0, rel=1e-12)
    assert np.abs(shear[1:]).max() < 1e-11


def test_operator_degree_bounds(small_corpus):
    # moment restrictions have degree <= order-2, shear <= order-3: the
    # higher coefficients must vanish identically
    for mesh in small_corpus[:4]:
        frame = cell_frame(mesh, 0)
        for order in (2, 3, 5):
            basis = ScaledMonomialBasis(frame.centroid, frame.diameter, order)
            restr = basis.edge_restriction(frame.vertices[0], frame.vertices[1])
            normal, tangent = frame.normals[0], frame.tangents[0]
            mnn = restr @ normal_moment_matrix(basis, normal, DEFAULT_MATERIAL)
            shear = restr @ shear_matrix(basis, normal, tangent, DEFAULT_MATERIAL)
            assert np.abs(mnn[max(order - 1, 0) :]).max() == 0.0
            assert np.abs(shear[max(order - 2, 0) :]).max() == 0.0


def test_boundary_identity_on_polynomials(small_corpus):
    """Volume + boundary expansion reproduces the energy pairing.

    For every pair of basis monomials the bilinear form equals the sum of
    the interior bilaplacian pairing, the edge moment and shear pairings,
    and the endpoint twist terms, all computed on the cell traversal.
    """
    from conftest import boundary_identity_expansion

    rng = np.random.default_rng(3)
    for mesh in small_corpus[:6]:
        frame = cell_frame(mesh, 0)
        order = int(rng.integers(2, 6))
        basis = ScaledMonomialBasis(frame.centroid, frame.diameter, order)
        rule = polygon_rule(frame.vertices, frame.star, 2 * order)
        gram = energy_gram(basis, rule, DEFAULT_MATERIAL)
        expansion = boundary_identity_expansion(frame, basis, DEFAULT_MATERIAL, rule)
        scale = np.abs(gram).max()
        assert np.abs(expansion - gram).max() <= 1e-11 * scale


def test_seminorm_gram_counts_mixed_once(unit_square_mesh):
    frame = cell_frame(unit_square_mesh, 0)
    basis = ScaledMonomialBasis(frame.centroid, frame.diameter, 2)
    rule = polygon_rule(frame.vertices, frame.star, 2)
    gram = hessian_seminorm_gram(basis, rule)
    cxy = unscaled(basis, 1, 1)
    # |xy|_2^2 = int (u_xy)^2 = 1 with the mixed derivative counted once
    assert cxy @ gram @ cxy == pytest.approx(1.0, rel=1e-12)
