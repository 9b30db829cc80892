"""Scaled monomial bases on polygonal cells and on edges.

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
def exponents(degree: int) -> tuple[tuple[int, int], ...]:
    """Exponent pairs (a, b) of the basis, in canonical order."""
    out = []
    for d in range(degree + 1):
        for b in range(d + 1):
            out.append((d - b, b))
    return tuple(out)


@lru_cache(maxsize=None)
def exponent_table(degree: int) -> np.ndarray:
    """Exponent pairs of the basis as a (dim, 2) integer array (shared, read-only)."""
    table = np.array(exponents(degree), dtype=int)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _exponent_index(degree: int) -> dict[tuple[int, int], int]:
    return {ab: k for k, ab in enumerate(exponents(degree))}


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


def monomials(xi: np.ndarray, eta: np.ndarray, degree: int) -> np.ndarray:
    """Values xi^a eta^b of the basis exponents (a, b) of ``degree``, on a last axis.

    ``xi`` and ``eta`` are scaled coordinates of any one shape.
    """
    exps = exponent_table(degree)
    return power_table(xi, degree)[..., exps[:, 0]] * power_table(eta, degree)[..., exps[:, 1]]


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
    idx = _exponent_index(order)
    mat = np.zeros((len(exps), len(exps)))
    for k, (a, b) in enumerate(exps):
        if fac[k]:
            mat[idx[(a - i, b - j)], k] = fac[k]
    mat.flags.writeable = False
    return mat


@lru_cache(maxsize=None)
def _conv_index_tensor(degree: int) -> np.ndarray:
    """S[k, p, q] = 1 when p + q == k, for products of edge polynomials."""
    n = degree + 1
    s = np.zeros((n, n, n))
    for p in range(n):
        for q in range(n):
            if p + q <= degree:
                s[p + q, p, q] = 1.0
    return s


def centered_power_moments(max_power: int) -> np.ndarray:
    """Integrals of s^m over [-1/2, 1/2] for m = 0..max_power."""
    m = np.arange(max_power + 1)
    vals = (0.5**m) / (m + 1)
    vals[1::2] = 0.0
    return vals


class ScaledMonomialBasis:
    """Monomial basis of degree ``order`` centered at ``center``, scaled by ``h``."""

    def __init__(self, center: np.ndarray, h: float, order: int):
        if order < 0:
            raise ValueError("order must be nonnegative")
        self.center = np.asarray(center, dtype=float)
        self.h = float(h)
        self.order = order
        self.exponents = exponent_table(order)
        self.dim = space_dim(order)
        self._derivative_cache: dict[tuple[int, int], np.ndarray] = {}

    def eval(self, points: np.ndarray, derivative: tuple[int, int] = (0, 0)) -> np.ndarray:
        """Values of all basis functions (or one partial derivative) at points.

        Parameters
        ----------
        points : array, shape (n, 2)
        derivative : (i, j)
            Differentiation orders in x and y; (0, 0) gives plain values.

        Returns
        -------
        array, shape (n, dim)
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        xi = (points[:, 0] - self.center[0]) / self.h
        eta = (points[:, 1] - self.center[1]) / self.h
        i, j = derivative
        fac = _derivative_factors(self.order, i, j) / self.h ** (i + j)
        ax = np.maximum(self.exponents[:, 0] - i, 0)
        by = np.maximum(self.exponents[:, 1] - j, 0)
        vals = power_table(xi, self.order)[:, ax]
        vals *= power_table(eta, self.order)[:, by]
        vals *= fac
        return vals

    def derivative_matrix(self, i: int, j: int) -> np.ndarray:
        """Coefficient map of d^{i+j}/dx^i dy^j on the basis (dim x dim)."""
        cached = self._derivative_cache.get((i, j))
        if cached is None:
            cached = derivative_map(self.order, i, j) / self.h ** (i + j)
            self._derivative_cache[(i, j)] = cached
        return cached

    def laplacian_matrix(self) -> np.ndarray:
        return self.derivative_matrix(2, 0) + self.derivative_matrix(0, 2)

    def bilaplacian_matrix(self) -> np.ndarray:
        lap = self.laplacian_matrix()
        return lap @ lap

    def directional_matrix(self, direction: np.ndarray) -> np.ndarray:
        """Coefficient map of the first derivative along ``direction``."""
        return direction[0] * self.derivative_matrix(1, 0) + direction[1] * self.derivative_matrix(0, 1)

    def second_directional_matrix(self, d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
        """Coefficient map of the mixed second derivative along d1 then d2."""
        return (
            d1[0] * d2[0] * self.derivative_matrix(2, 0)
            + (d1[0] * d2[1] + d1[1] * d2[0]) * self.derivative_matrix(1, 1)
            + d1[1] * d2[1] * self.derivative_matrix(0, 2)
        )

    def edge_restriction(self, p0: np.ndarray, p1: np.ndarray) -> np.ndarray:
        """Expansion of each basis function along the segment p0 -> p1.

        The restriction is expressed in powers of the centered edge variable
        s in [-1/2, 1/2] with x(s) = midpoint + s (p1 - p0). Returns the
        matrix R of shape (order + 1, dim) with R[:, k] the s-coefficients of
        basis function k; the expansion is exact.
        """
        mid = 0.5 * (np.asarray(p0) + np.asarray(p1))
        vec = np.asarray(p1) - np.asarray(p0)
        a0 = (mid[0] - self.center[0]) / self.h
        a1 = vec[0] / self.h
        b0 = (mid[1] - self.center[1]) / self.h
        b1 = vec[1] / self.h
        n = self.order + 1
        # pow_x[i] = coefficients of (a0 + a1 s)^i, likewise pow_y
        pow_x = np.zeros((n, n))
        pow_y = np.zeros((n, n))
        pow_x[0, 0] = 1.0
        pow_y[0, 0] = 1.0
        for i in range(1, n):
            pow_x[i, : i + 1] = a0 * pow_x[i - 1, : i + 1]
            pow_x[i, 1 : i + 1] += a1 * pow_x[i - 1, :i]
            pow_y[i, : i + 1] = b0 * pow_y[i - 1, : i + 1]
            pow_y[i, 1 : i + 1] += b1 * pow_y[i - 1, :i]
        s = _conv_index_tensor(self.order)
        pa = pow_x[self.exponents[:, 0]]  # (dim, n)
        pb = pow_y[self.exponents[:, 1]]
        outer = pa[:, :, None] * pb[:, None, :]
        return np.einsum("kpq,apq->ka", s, outer)
