"""Closed-form benchmark solutions and their plate loads.

The reference displacement ``u = x^2 (1-x)^2 y^2 (1-y)^2`` vanishes together
with its normal derivative on the boundary of the unit square, so the clamped
problem with load ``D Lap^2 u`` has it as the exact solution. Monomial
solutions drive the consistency (patch) sweeps with strong boundary data.
"""

from __future__ import annotations

import numpy as np

from .plate import MaterialParams


def _g(x):
    return x**2 * (1.0 - x) ** 2


def _dg(x):
    return 2.0 * x - 6.0 * x**2 + 4.0 * x**3


def _d2g(x):
    return 2.0 - 12.0 * x + 12.0 * x**2


def displacement(x, y):
    return _g(x) * _g(y)


def gradient(x, y):
    return _dg(x) * _g(y), _g(x) * _dg(y)


def load(material: MaterialParams):
    """Source density D Lap^2 u of the reference displacement."""
    rigidity = material.rigidity

    def f(x, y):
        return rigidity * (24.0 * (_g(x) + _g(y)) + 2.0 * _d2g(x) * _d2g(y))

    return f


def _falling(n: int, k: int) -> float:
    out = 1.0
    for t in range(k):
        out *= n - t
    return out


def monomial_solution(p: int, q: int, material: MaterialParams):
    """Monomial x^p y^q with its gradient and plate load.

    Returns (u, grad_u, f) callbacks with ``f = D Lap^2 u`` expanded via the
    falling-factorial power rule; f vanishes identically for p + q <= 3.
    """

    def u(x, y):
        return x**p * y**q * np.ones_like(np.asarray(x, dtype=float))

    def grad(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        gx = p * x ** (p - 1) * y**q if p >= 1 else np.zeros_like(x)
        gy = q * x**p * y ** (q - 1) if q >= 1 else np.zeros_like(y)
        return gx, gy

    c_xxxx = _falling(p, 4)
    c_xxyy = 2.0 * _falling(p, 2) * _falling(q, 2)
    c_yyyy = _falling(q, 4)
    rigidity = material.rigidity

    def f(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        total = np.zeros_like(x)
        if c_xxxx:
            total = total + c_xxxx * x ** (p - 4) * y**q
        if c_xxyy:
            total = total + c_xxyy * x ** (p - 2) * y ** (q - 2)
        if c_yyyy:
            total = total + c_yyyy * x**p * y ** (q - 4)
        return rigidity * total

    return u, grad, f


def monomial_exponent_pairs(order: int):
    """All (p, q) with p + q <= order, in graded order."""
    return [(d - b, b) for d in range(order + 1) for b in range(d + 1)]
