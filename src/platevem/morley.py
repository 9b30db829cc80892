"""Classical Morley triangle solver, used to cross-validate the order-2 method.

The element basis inverts the 6x6 matrix of quadratic monomial unknowns
(three vertex values, three un-normalized edge integrals of the normal
derivative in the global edge convention) on each triangle, so the stiffness
path shares no code with the polygonal kernels: areas, normals, monomial
energies, and interior integrals all use closed forms special to triangles
and quadratics. Every routine takes a stack of triangles, (n, 3, 2) vertices
with their (n, 3) vertex ids, and returns one block per triangle.
"""

from __future__ import annotations

import numpy as np

from .assembly import BoundarySpec, PlateSystem, assemble_stiffness, global_dof_map
from .mesh import PolygonMesh
from .plate import MaterialParams


class MorleyError(Exception):
    """Mesh not suitable for the triangular oracle."""


def triangle_areas(vertices: np.ndarray) -> np.ndarray:
    """Signed areas, positive for counterclockwise triangles."""
    u = vertices[:, 1] - vertices[:, 0]
    w = vertices[:, 2] - vertices[:, 0]
    return 0.5 * (u[:, 0] * w[:, 1] - u[:, 1] * w[:, 0])


def _monomials(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # quadratic monomials 1, x, y, x^2, xy, y^2 in coordinates about the centroid
    return np.stack([np.ones_like(x), x, y, x * x, x * y, y * y], axis=-1)


def morley_dof_matrix(vertices: np.ndarray, vertex_ids: np.ndarray) -> np.ndarray:
    """(n, 6, 6) matrices of the monomial unknowns: vertex values, then edge integrals.

    Edge i joins vertices i and i+1; its normal derivative integral uses the
    normal induced by the traversal of the pair from the lower to the higher
    of their ``vertex_ids``, evaluated at the edge midpoint (exact: gradients
    of quadratics are linear).
    """
    center = vertices.mean(axis=1, keepdims=True)
    ahead = np.roll(vertices, -1, axis=1)
    sign = np.where(vertex_ids < np.roll(vertex_ids, -1, axis=1), 1.0, -1.0)
    vec = sign[..., None] * (ahead - vertices)
    # each length by a dot product, rounded as np.linalg.norm rounds one vector
    length = np.sqrt(vec[..., None, :] @ vec[..., :, None])[..., 0, 0]
    nx, ny = vec[..., 1] / length, -vec[..., 0] / length
    x, y = (0.5 * (vertices + ahead) - center).transpose(2, 0, 1)
    zero = np.zeros_like(x)
    edge = np.stack([zero, nx, ny, nx * (2.0 * x), nx * y + ny * x, ny * (2.0 * y)], axis=-1)
    rel = vertices - center
    return np.concatenate([_monomials(rel[..., 0], rel[..., 1]), length[..., None] * edge], axis=1)


def _require(ok: np.ndarray, problem: str) -> None:
    """Raise MorleyError naming the first cell where ``ok`` is false."""
    bad = np.flatnonzero(~ok)
    if len(bad):
        raise MorleyError(f"cell {bad[0]}: {problem}")


def morley_basis(vertices: np.ndarray, vertex_ids: np.ndarray) -> np.ndarray:
    """Inverse unknown matrices: column j holds the monomial coefficients of
    basis function j.

    Raises MorleyError naming the first degenerate or clockwise triangle,
    or the first triangle whose inverse is not finite (an unknown matrix
    singular in floating point), and on an exactly singular one.
    """
    _require(triangle_areas(vertices) > 0.0, "degenerate or negatively oriented triangle")
    try:
        basis = np.linalg.inv(morley_dof_matrix(vertices, vertex_ids))
    except np.linalg.LinAlgError as exc:
        raise MorleyError("singular unknown matrix: degenerate triangle") from exc
    _require(np.isfinite(basis).all(axis=(1, 2)), "singular unknown matrix")
    return basis


def morley_local_stiffness(
    vertices: np.ndarray, basis: np.ndarray, material: MaterialParams
) -> np.ndarray:
    """Exact plate energy of the Morley basis functions, (n, 6, 6).

    Only the second-degree coefficients (c_x2, c_xy, c_y2) carry energy: the
    Hessian (u_xx, u_xy, u_yy) = (2 c_x2, c_xy, 2 c_y2) is constant on each
    triangle, so the energy is the area times a fixed quadratic form.
    """
    nu = material.poisson
    lap = np.array([2.0, 0.0, 2.0])
    density = nu * np.outer(lap, lap) + (1.0 - nu) * np.diag([4.0, 2.0, 4.0])
    energy = material.rigidity * triangle_areas(vertices)[:, None, None] * density
    quad = basis[:, 3:]
    stiff = quad.transpose(0, 2, 1) @ energy @ quad
    return 0.5 * (stiff + stiff.transpose(0, 2, 1))


# degree-5 symmetric triangle rule (7 points) in barycentric coordinates:
# exact source integrals for polynomial loads up to degree 5
_SQRT15 = np.sqrt(15.0)
_RULE_BARY = np.array(
    [(1 / 3, 1 / 3, 1 / 3)]
    + [
        perm
        for a in ((6.0 + _SQRT15) / 21.0, (6.0 - _SQRT15) / 21.0)
        for perm in ((a, a, 1 - 2 * a), (a, 1 - 2 * a, a), (1 - 2 * a, a, a))
    ]
)
_RULE_WEIGHTS = np.array(
    [9.0 / 40.0] + 3 * [(155.0 + _SQRT15) / 1200.0] + 3 * [(155.0 - _SQRT15) / 1200.0]
)


def morley_local_load(vertices: np.ndarray, basis: np.ndarray, f) -> np.ndarray:
    """Load pairings against the cell average of f (matching the order-2 pairing), (n, 6).

    Uses ``(mean of f) * (integral of each basis function)`` so the oracle
    discretization matches the moment-based load of the polygonal method;
    the monomial integrals are exact by the edge-midpoint rule.
    """
    points = _RULE_BARY @ vertices
    favg = f(points[..., 0], points[..., 1]) @ _RULE_WEIGHTS
    rel = vertices - vertices.mean(axis=1, keepdims=True)
    mids = 0.5 * (rel + np.roll(rel, -1, axis=1))
    areas = triangle_areas(vertices)
    integrals = areas[:, None] * _monomials(mids[..., 0], mids[..., 1]).mean(axis=1)
    return favg[:, None] * np.einsum("nji,nj->ni", basis, integrals)


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
    _require(mesh.cells.lengths == 3, "not a triangle; the oracle requires a triangular mesh")
    dofmap = global_dof_map(mesh, 2)
    cells = np.arange(mesh.n_cells)
    ids = mesh.cells.stack(cells)
    vertices = mesh.vertices[ids]
    basis = morley_basis(vertices, ids)
    stiffness = morley_local_stiffness(vertices, basis, material)
    system = PlateSystem(assemble_stiffness([cells], [stiffness], dofmap), dofmap)
    loads = morley_local_load(vertices, basis, f)
    unknowns = dofmap.group_dofs(cells)  # (n_cells, 6)
    load = np.bincount(unknowns.ravel(), weights=loads.ravel(), minlength=dofmap.n_total)
    return system.solve_load(load, bc), dofmap
