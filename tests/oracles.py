"""Per-cell reference implementations the tests compare the library against.

A solve never runs any of this. The library builds its kernels for a whole
vertex-count group at once from exact cell moments; the oracles here take
one cell, one edge or one polynomial at a time, by quadrature or by the
textbook formula, so that each stacked routine has an independent route to
be checked against:

* :class:`ScaledMonomialBasis`, the monomials of one cell with their
  derivative maps and exact edge restrictions;
* :func:`edge_rule` and :func:`triangle_rule`, Gauss rules on one segment
  and one triangle, and the point-major fan rules and interior moments
  that the coordinate-major library routines must match bitwise;
* the plate energy and seminorm Grams by cell quadrature, and the bending
  moment, effective shear and corner twist operators on polynomials;
* the Morley oracle's interpolant and broken-H2 error over a stack of triangles;
* per-edge and per-cell geometry of a mesh (:class:`CellFrame`, one cell's
  rows of its group's stacks), and the layout slices of the edge unknowns;
* the diameter from all vertex pairs, and the Chebyshev ball from all
  edge triples of a polygon at once;
* the stiffness scatter by a transposition of the cells' block rows;
* the barycentric dual of a triangulation by a walk around each vertex;
* the Hessian of the reference displacement.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np
import scipy.sparse as sp

from platevem import local
from platevem.geometry import polygon_centroid
from platevem.local import DofLayout
from platevem.manufactured import _d2g, _dg, _g
from platevem.mesh import CellGroup, PolygonMesh, RegularityReport, derive_topology
from platevem.morley import morley_basis, triangle_areas
from platevem.plate import MaterialParams
from platevem.polynomials import (
    _derivative_factors,
    derivative_map,
    exponent_table,
    monomials,
    power_table,
    space_dim,
)
from platevem.quadrature import QuadratureRule, _reference_triangle, gauss_legendre, polygon_rule

# -- polynomials -------------------------------------------------------------


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


# -- quadrature --------------------------------------------------------------


def edge_rule(p0: np.ndarray, p1: np.ndarray, degree: int) -> QuadratureRule:
    """Gauss-Legendre rule on the segment p0 -> p1, exact to ``degree``."""
    n = max(1, (degree + 2) // 2)
    nodes, weights = gauss_legendre(n)
    mid = 0.5 * (np.asarray(p0) + np.asarray(p1))
    half = 0.5 * (np.asarray(p1) - np.asarray(p0))
    points = mid[None, :] + nodes[:, None] * half[None, :]
    length = 2.0 * np.linalg.norm(half)
    return QuadratureRule(points, weights * (length / 2.0), degree)


def mapped_triangles(a: np.ndarray, b: np.ndarray, c: np.ndarray, degree: int):
    """The reference triangle rule mapped onto triangles (a, b, c), arrays
    (..., 2), point by point: points (..., q, 2) and weights (..., q)."""
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


def triangle_rule(a: np.ndarray, b: np.ndarray, c: np.ndarray, degree: int) -> QuadratureRule:
    """Product Gauss rule on a triangle, exact for polynomials up to ``degree``."""
    points, weights = mapped_triangles(*(np.asarray(p, dtype=float) for p in (a, b, c)), degree)
    return QuadratureRule(points, weights, degree)


def point_fan_rules(vertices: np.ndarray, centers: np.ndarray, degree: int):
    """Fan rules of a (G, m, 2) stack of polygons mapped point by point:
    points (G, m q, 2) and weights (G, m q), triangle by triangle."""
    points, weights = mapped_triangles(
        centers[:, None, :], vertices, np.roll(vertices, -1, axis=1), degree
    )
    g = len(vertices)
    return points.reshape(g, -1, 2), weights.reshape(g, -1)


def point_interior_moments(mesh: PolygonMesh, order: int, w) -> np.ndarray:
    """Area-averaged moments of w against the monomials up to order - 4, in
    the chunks of ``local.interior_moments``, from :func:`point_fan_rules`
    and monomials on a trailing axis: (n_cells, dim_{order-4})."""
    degree = local.data_degree(order)
    out = np.empty((mesh.n_cells, space_dim(order - 4)))
    for group in mesh.group_index():
        for start in range(0, len(group), local.MOMENT_CHUNK):
            cells = group[start : start + local.MOMENT_CHUNK]
            points, weights = point_fan_rules(
                mesh.vertices[mesh.cells.stack(cells)], mesh.stars[cells], degree
            )
            x, y = points[..., 0], points[..., 1]
            weighted = weights * w(x.ravel(), y.ravel()).reshape(weights.shape)
            h = mesh.diameters[cells, None]
            xc, yc = mesh.centroids[cells].T[..., None]
            low = monomials((x - xc) / h, (y - yc) / h, order - 4)
            out[cells] = np.einsum("cp,cpk->ck", weighted, low) / mesh.areas[cells, None]
    return out


# -- plate energy and bending operators --------------------------------------


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


# -- Morley oracle -----------------------------------------------------------


def morley_interpolation_dofs(vertices: np.ndarray, vertex_ids, w, grad_w) -> np.ndarray:
    """Unknowns of a smooth function on a stack of triangles, (n, 6): vertex
    values, then the edge integrals of the normal derivative by 5-point Gauss."""
    ahead = np.roll(vertices, -1, axis=1)
    flip = vertex_ids > np.roll(vertex_ids, -1, axis=1)
    vec = np.where(flip[..., None], vertices - ahead, ahead - vertices)
    nodes, wts = np.polynomial.legendre.leggauss(5)
    pts = 0.5 * (vertices + ahead)[:, :, None] + 0.5 * nodes[:, None] * vec[:, :, None]
    gx, gy = grad_w(pts[..., 0], pts[..., 1])
    # length times the unit normal is the rotated edge vector (vy, -vx)
    flux = 0.5 * (vec[..., 1:] * gx - vec[..., :1] * gy) @ wts
    return np.concatenate([w(vertices[..., 0], vertices[..., 1]), flux], axis=1)


def morley_error_2h(mesh: PolygonMesh, dofmap, solution, exact, exact_grad) -> float:
    """Relative broken H2 error of a Morley solution against the interpolated
    exact solution.

    Quadratics have constant second derivatives (u_xx, u_xy, u_yy) =
    (2 c_x2, c_xy, 2 c_y2), so the elementwise seminorm is a closed form in
    the coefficients.
    """
    cells = np.arange(mesh.n_cells)
    ids = mesh.cells.stack(cells)
    verts = mesh.vertices[ids]
    basis = morley_basis(verts, ids)
    sol = np.einsum("nij,nj->ni", basis, solution[dofmap.group_dofs(cells)])
    exa = np.einsum("nij,nj->ni", basis, morley_interpolation_dofs(verts, ids, exact, exact_grad))
    areas = triangle_areas(verts)
    num, den = (areas @ ((c[:, 3:] * [2.0, 1.0, 2.0]) ** 2).sum(axis=1) for c in (exa - sol, exa))
    if den == 0.0:
        return float(np.sqrt(num))
    return float(np.sqrt(num / den))


# -- mesh geometry and layout ------------------------------------------------


@dataclass(frozen=True)
class Edge:
    """Oriented mesh edge running from the lower to the higher vertex index."""

    endpoint_ids: tuple[int, int]
    length: float
    normal: np.ndarray
    tangent: np.ndarray
    adjacent_cells: tuple[int, ...]
    is_boundary: bool


def mesh_edge(mesh: PolygonMesh, i: int) -> Edge:
    """Edge i of a mesh, from its endpoint coordinates alone."""
    v0, v1 = mesh.edge_vertices[i]
    a = mesh.vertices[v0]
    b = mesh.vertices[v1]
    t = b - a
    length = float(np.linalg.norm(t))
    t = t / length
    n = np.array([t[1], -t[0]])
    cells = tuple(int(c) for c in mesh.edge_cells[i] if c >= 0)
    return Edge((int(v0), int(v1)), length, n, t, cells, len(cells) == 1)


@dataclass(frozen=True)
class CellFrame:
    """Geometry of one cell, row k of its group's stacks.

    ``edge_signs[i]`` is +1 when the cell traverses local edge i in the global
    edge orientation (lower to higher vertex id) and -1 otherwise; the cell's
    outward normal on that edge is ``edge_signs[i] * normals[i]``.
    """

    index: int
    vertex_ids: np.ndarray
    vertices: np.ndarray  # (m, 2), counterclockwise
    edge_ids: np.ndarray  # (m,), local edge i joins local vertices i, i+1
    edge_signs: np.ndarray  # (m,), +-1 vs global orientation
    edge_lengths: np.ndarray
    normals: np.ndarray  # (m, 2), global-orientation normals
    tangents: np.ndarray  # (m, 2), global-orientation tangents
    area: float
    centroid: np.ndarray
    diameter: float
    star: np.ndarray

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_ids)


def group_frame(group: CellGroup, k: int) -> CellFrame:
    """The frame of the k-th cell of a group, as views into its stacks."""
    return CellFrame(
        index=int(group.index[k]),
        vertex_ids=group.vertex_ids[k],
        vertices=group.vertices[k],
        edge_ids=group.edge_ids[k],
        edge_signs=group.edge_signs[k],
        edge_lengths=group.edge_lengths[k],
        normals=group.normals[k],
        tangents=group.tangents[k],
        area=float(group.areas[k]),
        centroid=group.centroids[k],
        diameter=float(group.diameters[k]),
        star=group.stars[k],
    )


def cell_frame(mesh: PolygonMesh, i: int) -> CellFrame:
    """Geometry of cell i: its one-cell group's frame."""
    return group_frame(mesh.cell_group([i]), 0)


def outward_normal(frame: CellFrame, i: int) -> np.ndarray:
    """The cell's outward normal on its local edge i."""
    return frame.edge_signs[i] * frame.normals[i]


def traversal_tangent(frame: CellFrame, i: int) -> np.ndarray:
    """The counterclockwise tangent of the cell's local edge i."""
    return frame.edge_signs[i] * frame.tangents[i]


def barycentric_dual_walk(points: np.ndarray, triangles: list) -> PolygonMesh:
    """Polygonal dual of a triangulation, one cell per primal vertex, by a
    walk over a dict of directed edges around each vertex: the reference of
    ``generators._barycentric_dual``."""
    n_pts = len(points)
    directed = {}
    for t, tri in enumerate(triangles):
        for k in range(3):
            directed[(tri[k], tri[(k + 1) % 3])] = t
    barycenters = np.array(
        [(points[a] + points[b] + points[c]) / 3.0 for a, b, c in triangles]
    )
    # boundary edges: directed edges without a reverse partner
    boundary_out = {}
    boundary_mid_id = {}
    mids = []
    for (a, b), _t in directed.items():
        if (b, a) not in directed:
            boundary_out[a] = b
            key = (a, b) if a < b else (b, a)
            if key not in boundary_mid_id:
                boundary_mid_id[key] = len(mids)
                mids.append(0.5 * (points[a] + points[b]))
    n_tri = len(triangles)
    n_mid = len(mids)
    primal_id = {}
    boundary_primal = []
    for a in boundary_out:
        primal_id[a] = n_tri + n_mid + len(boundary_primal)
        boundary_primal.append(points[a])
    vertices = np.vstack([barycenters, np.array(mids), np.array(boundary_primal)])

    def mid_id(a, b):
        return n_tri + boundary_mid_id[(a, b) if a < b else (b, a)]

    def walk(v, w0):
        """Fan of triangles around v, rotating counterclockwise from w0."""
        tris = []
        w = w0
        while (v, w) in directed:
            t = directed[(v, w)]
            tris.append(t)
            tri = triangles[t]
            k = tri.index(v)
            w = tri[(k + 2) % 3]
            if w == w0:
                return tris, None
        return tris, w

    cells = []
    incident = [[] for _ in range(n_pts)]
    for t, tri in enumerate(triangles):
        for v in tri:
            incident[v].append(t)
    for v in range(n_pts):
        if not incident[v]:
            continue
        if v in boundary_out:
            tris, w_last = walk(v, boundary_out[v])
            cell = [primal_id[v], mid_id(v, boundary_out[v])]
            cell.extend(tris)
            cell.append(mid_id(w_last, v))
        else:
            tri0 = triangles[incident[v][0]]
            w0 = tri0[(tri0.index(v) + 1) % 3]
            tris, _ = walk(v, w0)
            cell = list(tris)
        cells.append(cell)
    return derive_topology(vertices, cells)


def edge_normal_slice(layout: DofLayout, i: int) -> slice:
    """Local positions of the normal-derivative moments of local edge i."""
    start = layout.n_vertices + i * layout.n_edge_normal
    return slice(start, start + layout.n_edge_normal)


def edge_value_slice(layout: DofLayout, i: int) -> slice:
    """Local positions of the trace moments of local edge i."""
    start = layout.n_vertices * (1 + layout.n_edge_normal) + i * layout.n_edge_value
    return slice(start, start + layout.n_edge_value)


def regularity_passes(report: RegularityReport, rho0: float, angle_floor: float = 0.1) -> bool:
    """Whether a mesh's regularity report meets the star and edge ratio
    ``rho0`` and the sub-triangle angle floor (radians)."""
    return (
        report.min_star_radius_ratio >= rho0
        and report.min_edge_to_diameter_ratio >= rho0
        and report.min_subtriangle_quality >= angle_floor
    )


def all_pairs_diameter(vertices: np.ndarray):
    """``geometry.polygon_diameter`` from all m^2 vertex differences at once."""
    diff = vertices[..., :, None, :] - vertices[..., None, :, :]
    return np.sqrt((diff**2).sum(axis=-1)).max(axis=(-2, -1))


def all_triples_chebyshev_ball(vertices: np.ndarray):
    """``geometry.chebyshev_ball`` with every edge triple solved and scored
    in one pass: centres (..., 2) and radii (...). Memory grows as m^4 for
    polygons with m vertices."""
    centre = polygon_centroid(vertices)
    scale = all_pairs_diameter(vertices)
    a = (vertices - centre[..., None, :]) / scale[..., None, None]
    t = np.roll(a, -1, axis=-2) - a
    n = np.stack([t[..., 1], -t[..., 0]], axis=-1)
    n /= np.sqrt((n**2).sum(axis=-1))[..., None]
    b = (n * a).sum(axis=-1)
    i, j, k = np.array(list(combinations(range(vertices.shape[-2]), 3))).T
    d1, d2 = n[..., i, :] - n[..., j, :], n[..., i, :] - n[..., k, :]
    e1, e2 = b[..., i] - b[..., j], b[..., i] - b[..., k]
    det = d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0]
    det[det == 0.0] = 1.0
    x = np.stack(
        [e1 * d2[..., 1] - e2 * d1[..., 1], d1[..., 0] * e2 - d2[..., 0] * e1], axis=-1
    ) / det[..., None]
    clearance = (b[..., None, :] - (x[..., :, None, :] * n[..., None, :, :]).sum(-1)).min(-1)
    best = clearance.argmax(axis=-1)[..., None]
    x = np.take_along_axis(x, best[..., None], axis=-2)[..., 0, :]
    r = np.take_along_axis(clearance, best, axis=-1)[..., 0]
    return centre + scale[..., None] * x, scale * r


def transposed_stiffness(cells, stiffness, dofmap) -> sp.csr_matrix:
    """``assembly.assemble_stiffness`` by a transposition: the CSR form of
    the transpose of the cells' block rows L lists, in global row i, the
    block column of every local unknown numbered i. By the exact symmetry of
    the blocks that is the block row, so renaming each column (cell, local
    unknown) to its global unknown and summing the duplicates gives the
    matrix."""
    shape = (dofmap.n_total, dofmap.n_total)
    unknowns = [dofmap.group_dofs(index) for index in cells]
    renamed = np.concatenate([idx.ravel() for idx in unknowns]).astype(np.int32)
    lengths = np.concatenate([np.full(idx.size, idx.shape[1]) for idx in unknowns])
    indptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int32)
    columns = np.concatenate(
        [np.repeat(idx, idx.shape[1], axis=0).ravel() for idx in unknowns]
    ).astype(np.int32)
    values = np.concatenate([blocks.ravel() for blocks in stiffness])
    local_rows = sp.csr_matrix((values, columns, indptr), shape=(len(renamed), shape[1]))
    by_column = local_rows.T.tocsr()
    matrix = sp.csr_matrix(
        (by_column.data, renamed[by_column.indices], by_column.indptr), shape=shape
    )
    matrix.sum_duplicates()
    return matrix


def coo_stiffness(cells, stiffness, dofmap) -> sp.csr_matrix:
    """``assembly.assemble_stiffness`` by SciPy's coordinate format: every
    entry of every cell block, at its global row and column, converted to
    CSR, which sums the duplicates."""
    rows, cols = [], []
    for index in cells:
        idx = dofmap.group_dofs(index)
        shape = idx.shape + idx.shape[1:]
        rows.append(np.broadcast_to(idx[:, :, None], shape).ravel())
        cols.append(np.broadcast_to(idx[:, None, :], shape).ravel())
    values = np.concatenate([blocks.ravel() for blocks in stiffness])
    return sp.coo_matrix(
        (values, (np.concatenate(rows), np.concatenate(cols))),
        shape=(dofmap.n_total, dofmap.n_total),
    ).tocsr()


# -- reference displacement --------------------------------------------------


def hessian(x, y):
    """Second derivatives (u_xx, u_xy, u_yy) of ``manufactured.displacement``."""
    return _d2g(x) * _g(y), _dg(x) * _dg(y), _g(x) * _d2g(y)
