"""Numerical integration rules on edges, triangles, and star-shaped polygons."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class QuadratureRule:
    """Point set and weights integrating polynomials exactly up to ``degree``."""

    points: np.ndarray  # (n, 2)
    weights: np.ndarray  # (n,)
    degree: int

    def integrate(self, values: np.ndarray) -> float:
        return float(self.weights @ values)


@lru_cache(maxsize=None)
def gauss_legendre(n_points: int):
    nodes, weights = np.polynomial.legendre.leggauss(n_points)
    return nodes, weights


def edge_rule(p0: np.ndarray, p1: np.ndarray, degree: int) -> QuadratureRule:
    """Gauss-Legendre rule on the segment p0 -> p1, exact to ``degree``."""
    n = max(1, (degree + 2) // 2)
    nodes, weights = gauss_legendre(n)
    mid = 0.5 * (np.asarray(p0) + np.asarray(p1))
    half = 0.5 * (np.asarray(p1) - np.asarray(p0))
    points = mid[None, :] + nodes[:, None] * half[None, :]
    length = 2.0 * np.linalg.norm(half)
    return QuadratureRule(points, weights * (length / 2.0), degree)


@lru_cache(maxsize=None)
def _reference_triangle(degree: int):
    """Collapsed Gauss rule on the unit triangle: (xi, eta, weights), read-only.

    Built by collapsing a tensor Gauss-Legendre grid onto the triangle; the
    collapse Jacobian raises the required one-dimensional degree by one, which
    the point counts below account for.
    """
    nu = max(1, (degree + 3) // 2)
    nv = max(1, (degree + 2) // 2)
    xu, wu = gauss_legendre(nu)
    xv, wv = gauss_legendre(nv)
    u = 0.5 * (xu + 1.0)
    v = 0.5 * (xv + 1.0)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    ww = np.outer(0.5 * wu, 0.5 * wv) * uu  # collapse Jacobian
    rule = ((uu * (1.0 - vv)).ravel(), (uu * vv).ravel(), ww.ravel())
    for arr in rule:
        arr.flags.writeable = False
    return rule


def _fan_rule(a: np.ndarray, b: np.ndarray, c: np.ndarray, degree: int) -> QuadratureRule:
    """The reference rule mapped onto triangles (a_i, b_i, c_i), rows of (T, 2).

    Points and weights are listed triangle by triangle.
    """
    xi, eta, ww = _reference_triangle(degree)
    area2 = np.abs(
        (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
    )
    points = (
        a[:, None, :]
        + xi[None, :, None] * (b - a)[:, None, :]
        + eta[None, :, None] * (c - a)[:, None, :]
    )
    weights = ww[None, :] * area2[:, None]
    return QuadratureRule(points.reshape(-1, 2), weights.ravel(), degree)


def triangle_rule(a: np.ndarray, b: np.ndarray, c: np.ndarray, degree: int) -> QuadratureRule:
    """Product Gauss rule on a triangle, exact for polynomials up to ``degree``."""
    corners = (np.asarray(p, dtype=float)[None, :] for p in (a, b, c))
    return _fan_rule(*corners, degree)


def polygon_rule(vertices: np.ndarray, center: np.ndarray, degree: int) -> QuadratureRule:
    """Quadrature on a star-shaped polygon via its fan sub-triangulation.

    Parameters
    ----------
    vertices : array, shape (m, 2)
        Polygon vertices in counterclockwise order.
    center : array, shape (2,)
        Interior fan point; every fan triangle must be positively oriented.
    degree : int
        Polynomial exactness degree of the aggregated rule.
    """
    vertices = np.asarray(vertices, dtype=float)
    center = np.asarray(center, dtype=float)
    nxt = np.roll(vertices, -1, axis=0)
    cross = (vertices[:, 0] - center[0]) * (nxt[:, 1] - center[1]) - (
        vertices[:, 1] - center[1]
    ) * (nxt[:, 0] - center[0])
    if np.any(cross <= 0.0):
        raise ValueError("fan point is not interior: non-positive sub-triangle")
    return _fan_rule(np.broadcast_to(center, vertices.shape), vertices, nxt, degree)
