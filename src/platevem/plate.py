"""Kirchhoff plate material model and bending operators on polynomials.

The cell energy is ``a_K(u, v) = D \\int_K (nu Lap(u) Lap(v)
+ (1 - nu) u_,ij v_,ij) dx`` with the Einstein double sum over second
derivatives. Its boundary expansion on a straight edge with outward normal n
and counterclockwise tangent t involves the bending moment
``M_nn = nu Lap(u) + (1 - nu) u_,nn``, the effective shear
``T = d_n(Lap u) + (1 - nu) u_,ntt`` and the corner twisting terms
``(1 - nu) u_,nt`` evaluated at the edge endpoints with signs -1 at the edge
start and +1 at the edge end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .polynomials import ScaledMonomialBasis
from .quadrature import QuadratureRule, polygon_rule


@dataclass(frozen=True)
class MaterialParams:
    """Plate material: Young modulus, thickness, and Poisson ratio."""

    young: float
    thickness: float
    poisson: float

    def __post_init__(self):
        if not 0.0 <= self.poisson < 0.5:
            raise ValueError("Poisson ratio must lie in [0, 0.5)")
        if not 0.0 < self.rigidity < np.inf:
            raise ValueError("bending rigidity must be positive and finite")

    @property
    def rigidity(self) -> float:
        """Bending rigidity D = E t^3 / (12 (1 - nu^2))."""
        return self.young * self.thickness**3 / (12.0 * (1.0 - self.poisson**2))

    @classmethod
    def from_rigidity(cls, rigidity: float, poisson: float, thickness: float = 1.0):
        young = 12.0 * rigidity * (1.0 - poisson**2) / thickness**3
        return cls(young, thickness, poisson)


DEFAULT_MATERIAL = MaterialParams.from_rigidity(1.0, 0.3)


def energy_gram(
    basis: ScaledMonomialBasis, rule: QuadratureRule, material: MaterialParams
) -> np.ndarray:
    """Gram matrix of the cell energy on the monomial basis.

    The quadrature rule must be exact to degree 2 (order - 2); the result is
    then exact, symmetric positive semidefinite with the linear polynomials
    as kernel.
    """
    dxx = basis.eval(rule.points, (2, 0))
    dxy = basis.eval(rule.points, (1, 1))
    dyy = basis.eval(rule.points, (0, 2))
    lap = dxx + dyy
    w = rule.weights[:, None]
    nu = material.poisson
    gram = nu * (lap.T @ (w * lap)) + (1.0 - nu) * (
        dxx.T @ (w * dxx) + 2.0 * (dxy.T @ (w * dxy)) + dyy.T @ (w * dyy)
    )
    gram *= material.rigidity
    return 0.5 * (gram + gram.T)


def hessian_seminorm_gram(basis: ScaledMonomialBasis, rule: QuadratureRule) -> np.ndarray:
    """Gram matrix of the H2 seminorm (each mixed derivative counted once)."""
    dxx = basis.eval(rule.points, (2, 0))
    dxy = basis.eval(rule.points, (1, 1))
    dyy = basis.eval(rule.points, (0, 2))
    w = rule.weights[:, None]
    gram = dxx.T @ (w * dxx) + dxy.T @ (w * dxy) + dyy.T @ (w * dyy)
    return 0.5 * (gram + gram.T)


def normal_moment_matrix(
    basis: ScaledMonomialBasis, normal: np.ndarray, material: MaterialParams
) -> np.ndarray:
    """Coefficient map of D (nu Lap + (1 - nu) d_nn); even in the normal."""
    nu = material.poisson
    mat = nu * basis.laplacian_matrix() + (1.0 - nu) * basis.second_directional_matrix(
        normal, normal
    )
    return material.rigidity * mat


def shear_matrix(
    basis: ScaledMonomialBasis,
    normal: np.ndarray,
    tangent: np.ndarray,
    material: MaterialParams,
) -> np.ndarray:
    """Coefficient map of D (d_n Lap + (1 - nu) d_ntt); odd in (n, t) flips."""
    nu = material.poisson
    dn = basis.directional_matrix(normal)
    dt = basis.directional_matrix(tangent)
    mat = dn @ basis.laplacian_matrix() + (1.0 - nu) * (dt @ (dt @ dn))
    return material.rigidity * mat


def twist_matrix(
    basis: ScaledMonomialBasis,
    normal: np.ndarray,
    tangent: np.ndarray,
    material: MaterialParams,
) -> np.ndarray:
    """Coefficient map of D (1 - nu) d_nt; even in the (n, t) pair flip."""
    mat = basis.second_directional_matrix(normal, tangent)
    return material.rigidity * (1.0 - material.poisson) * mat


def edge_operators(
    basis: ScaledMonomialBasis,
    coeffs: np.ndarray,
    p0: np.ndarray,
    p1: np.ndarray,
    normal: np.ndarray,
    tangent: np.ndarray,
    material: MaterialParams,
):
    """Plate boundary operators of one polynomial restricted to a straight edge.

    Parameters
    ----------
    coeffs : array, shape (dim,)
        Polynomial coefficients in ``basis``.
    p0, p1 : arrays, shape (2,)
        Edge endpoints; the restriction variable is the centered arclength
        s in [-1/2, 1/2] running from p0 to p1.
    normal, tangent : arrays, shape (2,)
        Unit outward normal and traversal tangent of the edge.

    Returns
    -------
    mnn : array
        Coefficients in s of the bending moment along the edge.
    shear : array
        Coefficients in s of the effective shear along the edge.
    twist_ends : array, shape (2,)
        Corner twisting values at (p0, p1), already multiplied by the
        endpoint signs (-1 at p0, +1 at p1).
    """
    restr = basis.edge_restriction(p0, p1)
    mnn = restr @ (normal_moment_matrix(basis, normal, material) @ coeffs)
    shear = restr @ (shear_matrix(basis, normal, tangent, material) @ coeffs)
    twist_coeffs = twist_matrix(basis, normal, tangent, material) @ coeffs
    ends = basis.eval(np.array([p0, p1]), (0, 0)) @ twist_coeffs
    return mnn, shear, np.array([-ends[0], ends[1]])


def exact_bilinear(
    vertices: np.ndarray,
    star: np.ndarray,
    basis: ScaledMonomialBasis,
    material: MaterialParams,
    p_coeffs: np.ndarray,
    q_coeffs: np.ndarray,
) -> float:
    """Cell energy of two polynomials, integrated exactly over the polygon."""
    rule = polygon_rule(vertices, star, max(0, 2 * basis.order - 4))
    gram = energy_gram(basis, rule, material)
    return float(p_coeffs @ gram @ q_coeffs)
