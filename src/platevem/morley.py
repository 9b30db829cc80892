"""Classical Morley triangle solver, used to cross-validate the order-2 method.

The element basis inverts the 6x6 matrix of quadratic monomial unknowns
(three vertex values, three un-normalized edge integrals of the normal
derivative in the global edge convention) on each triangle, so the stiffness
path shares no code with the polygonal kernels: areas, normals, monomial
energies, and interior integrals all use closed forms special to triangles
and quadratics.
"""

from __future__ import annotations

import numpy as np

from .assembly import BoundarySpec, PlateSystem, assemble_stiffness, global_dof_map
from .mesh import PolygonMesh
from .plate import MaterialParams


class MorleyError(Exception):
    """Mesh not suitable for the triangular oracle."""


# quadratic monomials 1, x, y, x^2, xy, y^2 centered at the triangle centroid


def _hessians():
    # (u_xx, u_xy, u_yy) of each centered monomial; constants on a triangle
    return np.array(
        [
            [0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0],
            [2.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 2.0],
        ]
    )


def _monomial_values(points: np.ndarray, center: np.ndarray) -> np.ndarray:
    x = points[:, 0] - center[0]
    y = points[:, 1] - center[1]
    one = np.ones_like(x)
    return np.column_stack([one, x, y, x * x, x * y, y * y])


def _monomial_gradients(points: np.ndarray, center: np.ndarray):
    x = points[:, 0] - center[0]
    y = points[:, 1] - center[1]
    zero = np.zeros_like(x)
    one = np.ones_like(x)
    gx = np.column_stack([zero, one, zero, 2.0 * x, y, zero])
    gy = np.column_stack([zero, zero, one, zero, x, 2.0 * y])
    return gx, gy


def morley_dof_matrix(vertices: np.ndarray, vertex_ids=(0, 1, 2)) -> np.ndarray:
    """6x6 matrix of the monomial unknowns: vertex values, then edge integrals.

    Edge i joins vertices i and i+1; its normal derivative integral uses the
    normal induced by the traversal of the pair from the lower to the higher
    of their ``vertex_ids``, evaluated at the edge midpoint (exact: gradients
    of quadratics are linear).
    """
    center = vertices.mean(axis=0)
    mat = np.empty((6, 6))
    mat[:3] = _monomial_values(vertices, center)
    for i in range(3):
        ia, ib = vertex_ids[i], vertex_ids[(i + 1) % 3]
        a, b = vertices[i], vertices[(i + 1) % 3]
        if ia > ib:
            a, b = b, a
        vec = b - a
        length = float(np.linalg.norm(vec))
        normal = np.array([vec[1], -vec[0]]) / length
        mid = 0.5 * (a + b)[None, :]
        gx, gy = _monomial_gradients(mid, center)
        mat[3 + i] = length * (normal[0] * gx[0] + normal[1] * gy[0])
    return mat


def _triangle_area(vertices: np.ndarray) -> float:
    a, b, c = vertices
    return 0.5 * float(
        (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    )


def morley_local_stiffness(
    vertices: np.ndarray, material: MaterialParams, vertex_ids=(0, 1, 2)
) -> np.ndarray:
    """Exact plate energy of the Morley basis functions on one triangle."""
    area = _triangle_area(vertices)
    if area <= 0.0:
        raise MorleyError("degenerate or negatively oriented triangle")
    hess = _hessians()
    lap = hess[:, 0] + hess[:, 2]
    nu = material.poisson
    energy = material.rigidity * area * (
        nu * np.outer(lap, lap)
        + (1.0 - nu)
        * (
            np.outer(hess[:, 0], hess[:, 0])
            + 2.0 * np.outer(hess[:, 1], hess[:, 1])
            + np.outer(hess[:, 2], hess[:, 2])
        )
    )
    try:
        inv = np.linalg.inv(morley_dof_matrix(vertices, vertex_ids))
    except np.linalg.LinAlgError as exc:
        raise MorleyError("singular unknown matrix: degenerate triangle") from exc
    stiff = inv.T @ energy @ inv
    return 0.5 * (stiff + stiff.T)


# degree-5 symmetric triangle rule (7 points): exact source integrals for
# polynomial loads up to degree 5
_SQRT15 = np.sqrt(15.0)


def _degree5_rule(vertices: np.ndarray):
    a1 = (6.0 + _SQRT15) / 21.0
    a2 = (6.0 - _SQRT15) / 21.0
    w1 = (155.0 + _SQRT15) / 1200.0
    w2 = (155.0 - _SQRT15) / 1200.0
    bary = [np.array([1 / 3, 1 / 3, 1 / 3])]
    weights = [9.0 / 40.0]
    for a, w in ((a1, w1), (a2, w2)):
        for perm in ((a, a, 1 - 2 * a), (a, 1 - 2 * a, a), (1 - 2 * a, a, a)):
            bary.append(np.array(perm))
            weights.append(w)
    area = _triangle_area(vertices)
    points = np.array([b @ vertices for b in bary])
    return points, area * np.array(weights)


def _interior_monomial_integrals(vertices: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Exact integrals of the centered quadratic monomials (midpoint rule)."""
    area = _triangle_area(vertices)
    mids = 0.5 * (vertices + np.roll(vertices, -1, axis=0))
    vals = _monomial_values(mids, center)
    return area * vals.mean(axis=0)


def morley_local_load(vertices: np.ndarray, f, vertex_ids=(0, 1, 2)) -> np.ndarray:
    """Load pairings against the cell average of f (matching the order-2 pairing).

    Uses ``(mean of f) * (integral of each basis function)`` so the oracle
    discretization matches the moment-based load of the polygonal method.
    """
    area = _triangle_area(vertices)
    points, weights = _degree5_rule(vertices)
    favg = float(weights @ f(points[:, 0], points[:, 1])) / area
    integrals = _interior_monomial_integrals(vertices, vertices.mean(axis=0))
    return favg * np.linalg.solve(morley_dof_matrix(vertices, vertex_ids).T, integrals)


def _check_triangular(mesh: PolygonMesh):
    for ids in mesh.cells:
        if len(ids) != 3:
            raise MorleyError("oracle requires a triangular mesh")


def morley_solve(
    mesh: PolygonMesh,
    material: MaterialParams,
    f,
    bc: BoundarySpec = BoundarySpec.clamped(),
):
    """Assemble and solve the Morley discretization on a triangular mesh.

    Shares the global numbering, the stiffness scatter and the reduced
    solve of the order-2 polygonal method (vertex unknowns then one normal
    moment per edge), so solution vectors are directly comparable entry by
    entry.

    Returns (solution vector, dofmap).
    """
    _check_triangular(mesh)
    dofmap = global_dof_map(mesh, 2)
    cells = np.arange(mesh.n_cells)
    stiff, loads = [], []
    for c in cells:
        ids = mesh.cells[c]
        verts = mesh.vertices[ids]
        stiff.append(morley_local_stiffness(verts, material, ids))
        loads.append(morley_local_load(verts, f, ids))
    system = PlateSystem(assemble_stiffness([cells], [np.array(stiff)], dofmap), dofmap)
    unknowns = dofmap.group_dofs(cells)  # (n_cells, 6)
    load = np.bincount(unknowns.ravel(), weights=np.ravel(loads), minlength=dofmap.n_total)
    return system.solve_load(load, bc), dofmap
