"""Scaled monomials: exponent tables, power tables and derivative maps.

Cell polynomials are expanded in monomials ``((x - x_c)/h)^a ((y - y_c)/h)^b``
centered at the cell centroid and scaled by the cell diameter, ordered by
total degree and, within a degree, by descending first exponent
(1; x, y; x^2, xy, y^2; ...). Edge polynomials use the centered arclength
variable ``s = (arclength - midpoint)/length`` ranging over [-1/2, 1/2].
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def space_dim(degree: int) -> int:
    """Dimension of the bivariate polynomials of total degree <= degree."""
    if degree < 0:
        return 0
    return (degree + 1) * (degree + 2) // 2


@lru_cache(maxsize=None)
def exponent_table(degree: int) -> np.ndarray:
    """Exponent pairs (a, b) of the basis in canonical order, as a (dim, 2)
    integer array (shared, read-only); (a, b) is row ``space_dim(a + b - 1) + b``."""
    table = np.array([(d - b, b) for d in range(degree + 1) for b in range(d + 1)], dtype=int)
    table.flags.writeable = False
    return table


def power_table(x: np.ndarray, degree: int) -> np.ndarray:
    """Powers x^0, ..., x^degree along a new last axis.

    Built by repeated multiplication, so power k carries at most k - 1
    roundings, against one call of libm ``pow`` per entry otherwise.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape + (degree + 1,))
    out[..., 0] = 1.0
    if degree >= 1:
        out[..., 1] = x
    for k in range(2, degree + 1):
        np.multiply(out[..., k - 1], x, out=out[..., k])
    return out


def monomial_rows(xi: np.ndarray, eta: np.ndarray, degree: int) -> np.ndarray:
    """Values xi^a eta^b of the basis exponents (a, b) of ``degree``, on a
    leading axis: (dim,) + xi.shape.

    ``xi`` and ``eta`` are scaled coordinates of any one shape. The pure
    powers are built by repeated multiplication, as in :func:`power_table`,
    and each mixed monomial is the product of two of them. Each monomial is
    one contiguous array, written once.
    """
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    out = np.empty((space_dim(degree),) + xi.shape)
    out[0] = 1.0
    for d in range(1, degree + 1):
        first, prev = space_dim(d - 1), space_dim(d - 2)  # rows of x^d and x^(d - 1)
        x_row, y_row = out[first], out[first + d]
        if d == 1:
            x_row[...], y_row[...] = xi, eta
        else:
            np.multiply(out[prev], xi, out=x_row)
            np.multiply(out[prev + d - 1], eta, out=y_row)
        for b in range(1, d):
            np.multiply(out[space_dim(d - b - 1)], out[space_dim(b - 1) + b], out=out[first + b])
    return out


def monomials(xi: np.ndarray, eta: np.ndarray, degree: int) -> np.ndarray:
    """:func:`monomial_rows` with the basis on a last axis: xi.shape + (dim,).

    A view: in memory each monomial stays one contiguous array.
    """
    return np.moveaxis(monomial_rows(xi, eta, degree), 0, -1)


@lru_cache(maxsize=None)
def _derivative_factors(order: int, i: int, j: int) -> np.ndarray:
    """Falling-factorial prefactors of d^{i+j}/dx^i dy^j per basis function."""
    exps = exponent_table(order)
    fac = np.ones(len(exps))
    for t in range(i):
        fac *= np.maximum(exps[:, 0] - t, 0)
    for t in range(j):
        fac *= np.maximum(exps[:, 1] - t, 0)
    fac[(exps[:, 0] < i) | (exps[:, 1] < j)] = 0.0
    return fac


@lru_cache(maxsize=None)
def derivative_map(order: int, i: int, j: int) -> np.ndarray:
    """Coefficient map of d^{i+j}/dx^i dy^j on the unit-scaled basis (dim x dim).

    Column k holds the derivative of basis function k; divide by h^(i+j)
    for a basis scaled by h. The cached array is shared: do not modify it.
    """
    exps = exponent_table(order)
    fac = _derivative_factors(order, i, j)
    mat = np.zeros((len(exps), len(exps)))
    for k, (a, b) in enumerate(exps - (i, j)):
        if fac[k]:
            mat[space_dim(a + b - 1) + b, k] = fac[k]
    mat.flags.writeable = False
    return mat


def centered_power_moments(max_power: int) -> np.ndarray:
    """Integrals of s^m over [-1/2, 1/2] for m = 0..max_power."""
    m = np.arange(max_power + 1)
    vals = (0.5**m) / (m + 1)
    vals[1::2] = 0.0
    return vals
