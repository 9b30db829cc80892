"""Gauss-Legendre nodes, and quadrature on star-shaped polygons by fan sub-triangulation."""

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


@lru_cache(maxsize=None)
def gauss_legendre(n_points: int):
    nodes, weights = np.polynomial.legendre.leggauss(n_points)
    return nodes, weights


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


def _mapped(a: np.ndarray, b: np.ndarray, c: np.ndarray, degree: int):
    """The reference rule mapped onto triangles (a, b, c), arrays (..., 2).

    Returns points (..., q, 2) and weights (..., q), q the points of the
    reference rule.
    """
    xi, eta, ww = _reference_triangle(degree)
    area2 = np.abs(
        (b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1])
        - (b[..., 1] - a[..., 1]) * (c[..., 0] - a[..., 0])
    )
    points = (
        a[..., None, :]
        + xi[:, None] * (b - a)[..., None, :]
        + eta[:, None] * (c - a)[..., None, :]
    )
    return points, ww * area2[..., None]


class FanPointError(ValueError):
    """A fan point that is not interior: some fan sub-triangle is not positive.

    ``position`` is the stack position of the first polygon at fault.
    """

    def __init__(self, position: int):
        super().__init__("fan point is not interior: non-positive sub-triangle")
        self.position = position


def fan_rules(vertices: np.ndarray, centers: np.ndarray, degree: int):
    """Quadrature on a stack of star-shaped polygons via their fan sub-triangulations.

    Parameters
    ----------
    vertices : array, shape (G, m, 2)
        Vertices of G polygons with m vertices each, counterclockwise.
    centers : array, shape (G, 2)
        Interior fan point of each polygon; every fan triangle must be
        positively oriented, else :class:`FanPointError` names the first
        polygon that fails.
    degree : int
        Polynomial exactness degree of every rule.

    Returns
    -------
    points (G, m q, 2) and weights (G, m q), listed triangle by triangle.
    """
    center = centers[:, None, :]
    nxt = np.roll(vertices, -1, axis=1)
    cross = (vertices[..., 0] - center[..., 0]) * (nxt[..., 1] - center[..., 1]) - (
        vertices[..., 1] - center[..., 1]
    ) * (nxt[..., 0] - center[..., 0])
    bad = ~(cross > 0.0).all(axis=1)
    if bad.any():
        raise FanPointError(int(np.argmax(bad)))
    points, weights = _mapped(center, vertices, nxt, degree)
    g = len(vertices)
    return points.reshape(g, -1, 2), weights.reshape(g, -1)


def polygon_rule(vertices: np.ndarray, center: np.ndarray, degree: int) -> QuadratureRule:
    """Quadrature on one star-shaped polygon: :func:`fan_rules` for a stack of one.

    Parameters
    ----------
    vertices : array, shape (m, 2)
        Polygon vertices in counterclockwise order.
    center : array, shape (2,)
        Interior fan point; every fan triangle must be positively oriented.
    degree : int
        Polynomial exactness degree of the aggregated rule.
    """
    vertices = np.asarray(vertices, dtype=float)[None]
    center = np.asarray(center, dtype=float)[None]
    points, weights = fan_rules(vertices, center, degree)
    return QuadratureRule(points[0], weights[0], degree)
