"""Gauss-Legendre nodes, and quadrature on star-shaped polygons by fan sub-triangulation."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class QuadratureRule:
    """Point set and weights integrating polynomials exactly up to ``degree``."""

    points: np.ndarray  # (n, 2); a fan rule's columns x and y are each contiguous
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


class FanPointError(ValueError):
    """A fan point that is not interior: some fan sub-triangle is not positive.

    ``position`` is the stack position of the first polygon at fault.
    """

    def __init__(self, position: int):
        super().__init__("fan point is not interior: non-positive sub-triangle")
        self.position = position


def fan_rules(vertices: np.ndarray, centers: np.ndarray, degree: int):
    """Quadrature on a stack of star-shaped polygons via their fan sub-triangulations.

    The reference triangle rule is mapped onto every fan triangle one
    coordinate at a time, so each result is one flat array per polygon.

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
    x, y, weights, each (G, m q), q the points of the reference rule, listed
    triangle by triangle.
    """
    xi, eta, ww = _reference_triangle(degree)
    start = vertices - centers[:, None, :]  # fan triangle (center, v_i, v_i+1)
    end = np.roll(start, -1, axis=1)
    cross = start[..., 0] * end[..., 1] - start[..., 1] * end[..., 0]
    bad = ~(cross > 0.0).all(axis=1)
    if bad.any():
        raise FanPointError(int(np.argmax(bad)))
    g = len(vertices)

    def mapped(axis):
        along = xi * start[..., axis, None]
        along += centers[:, axis, None, None]
        along += eta * end[..., axis, None]
        return along.reshape(g, -1)

    return mapped(0), mapped(1), (ww * cross[..., None]).reshape(g, -1)


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
    x, y, weights = fan_rules(vertices, center, degree)
    return QuadratureRule(np.stack((x[0], y[0])).T, weights[0], degree)
