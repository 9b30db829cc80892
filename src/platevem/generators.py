"""Generators for the four polygonal mesh families on the unit square.

Every family starts from a 5x5 grid (refinement index n = 0) and uses a
10n x 10n grid for n >= 1. All generators return a fully derived
:class:`~platevem.mesh.PolygonMesh`; :func:`build_family` builds one family
by name and refinement index.
"""

from __future__ import annotations

import numpy as np

from .mesh import MeshError, PolygonMesh, derive_topology

DEFAULT_NOTCH_RATIO = 0.25
RANDOM_BOX_RATIO = 0.8


def resolution(n: int) -> int:
    """Grid resolution of refinement index n: 5 for n = 0, else 10 n."""
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise MeshError("refinement index must be a nonnegative integer")
    return 5 if n == 0 else 10 * int(n)


def _grid_vertices(r: int) -> np.ndarray:
    side = np.linspace(0.0, 1.0, r + 1)
    xx, yy = np.meshgrid(side, side, indexing="xy")
    return np.column_stack([xx.ravel(), yy.ravel()])


def _grid_nodes(r: int, first: int, last: int) -> np.ndarray:
    """Row-major ids of the grid nodes (i, j) with first <= i, j < last."""
    ids = np.arange(first, last)
    return (ids[:, None] * (r + 1) + ids[None, :]).ravel()


def _grid_quads(r: int) -> np.ndarray:
    """Vertex ids of the r x r grid squares, row-major, counterclockwise."""
    return _grid_nodes(r, 0, r)[:, None] + np.array([0, 1, r + 2, r + 1])


def criss_cross_mesh(r: int) -> PolygonMesh:
    """r x r squares, each split into four triangles through its center."""
    if r < 1:
        raise MeshError("resolution must be at least 1")
    grid = _grid_vertices(r)
    side = (np.arange(r) + 0.5) / r
    xx, yy = np.meshgrid(side, side, indexing="xy")
    centers = np.column_stack([xx.ravel(), yy.ravel()])
    vertices = np.vstack([grid, centers])
    quads = _grid_quads(r)
    center_ids = np.repeat(len(grid) + np.arange(r * r), 4)
    cells = np.column_stack(
        [quads.ravel(), np.roll(quads, -1, axis=1).ravel(), center_ids]
    )
    return derive_topology(vertices, cells.tolist())


def randomized_quadrilateral_mesh(r: int, seed: int) -> PolygonMesh:
    """r x r quadrilaterals with interior nodes displaced uniformly at random.

    Each interior grid node moves inside an axis-aligned box of side
    ``RANDOM_BOX_RATIO / r`` centered at the node, drawn once and row-major
    over interior nodes, so identical seeds reproduce identical meshes bit
    for bit. No draw needs a check: a node moves at most 0.4 / r per
    coordinate, so the opposite edges of a quadrilateral lie on either side
    of a band 0.2 / r wide and never meet, and the signed area
    1/2 (v2 - v0) x (v3 - v1) is positive because each diagonal's components
    keep their signs. :func:`~platevem.mesh.derive_topology` still checks
    every mesh.
    """
    if r < 1:
        raise MeshError("resolution must be at least 1")
    vertices = _grid_vertices(r)
    interior = _grid_nodes(r, 1, r)
    half = 0.5 * RANDOM_BOX_RATIO * (1.0 / r)
    rng = np.random.default_rng(seed)
    vertices[interior] += rng.uniform(-half, half, size=(len(interior), 2))
    return derive_topology(vertices, _grid_quads(r).tolist())


def nonconvex_octagonal_mesh(
    r: int, notch_ratio: float = DEFAULT_NOTCH_RATIO
) -> PolygonMesh:
    """r x r squares turned into tiling non-convex octagons.

    A midpoint is inserted on every grid edge. Interior midpoints are
    displaced perpendicular to their edge by ``notch_ratio`` times the cell
    side, with a sign alternating along the edge direction (+/- y by column
    for horizontal edges, +/- x by row for vertical ones). Each midpoint
    therefore notches into one of its two cells and bulges out of the other,
    interior cells acquire two reflex corners, and the octagons tile the
    square exactly. Midpoints on the domain boundary stay put, so cells cut
    by the boundary keep straight outer sides and a corner cell may end up
    convex.
    """
    if r < 1:
        raise MeshError("resolution must be at least 1")
    if not 0.0 < notch_ratio < 0.5:
        raise MeshError("notch_ratio must lie strictly between 0 and 0.5")
    a = 1.0 / r
    delta = notch_ratio * a
    grid = _grid_vertices(r)
    n_grid = (r + 1) ** 2
    ids = np.arange(r + 1)
    centers = (np.arange(r) + 0.5) * a
    # alternating notches: +delta on even columns (rows), -delta on odd ones
    notch = np.where(np.arange(r) % 2 == 0, 1.0, -1.0) * delta
    interior = (ids > 0) & (ids < r)
    # horizontal-edge midpoints: r per row, r + 1 rows
    hy = ids[:, None] * a + np.where(interior[:, None], notch[None, :], 0.0)
    hmid = np.column_stack([np.tile(centers, r + 1), hy.ravel()])
    # vertical-edge midpoints: r + 1 columns, r per column
    vx = ids[None, :] * a + np.where(interior[None, :], notch[:, None], 0.0)
    vmid = np.column_stack([vx.ravel(), np.repeat(centers, r + 1)])
    vertices = np.vstack([grid, hmid, vmid])

    # square c = j r + i, with corners (i, j), (i + 1, j), (i + 1, j + 1),
    # (i, j + 1); its bottom and top midpoints are hmid rows c and c + r, its
    # left and right ones the vmid rows of its lower corners (i, j), (i + 1, j)
    corners = _grid_quads(r)
    bottom = n_grid + np.arange(r * r)
    left = n_grid + (r + 1) * r + corners[:, 0]
    cells = np.column_stack(
        [
            corners[:, 0], bottom, corners[:, 1], left + 1,
            corners[:, 2], bottom + r, corners[:, 3], left,
        ]
    )
    return derive_topology(vertices, cells.tolist())


def _remap(points: np.ndarray) -> np.ndarray:
    bump = 0.1 * np.sin(2.0 * np.pi * points[:, 0]) * np.sin(2.0 * np.pi * points[:, 1])
    return points + bump[:, None]


def remapped_hexagonal_mesh(r: int) -> PolygonMesh:
    """Mainly hexagonal mesh dual to a smoothly remapped triangulation.

    An r x r grid is remapped by adding 0.1 sin(2 pi x) sin(2 pi y) to both
    coordinates, each quadrilateral is split into two triangles along its
    shorter diagonal (avoiding slivers in the stretched regions), and the
    polygonal cells connect the barycenters of the triangles around each
    primal vertex. Cells around boundary vertices are closed through the
    boundary edge midpoints and the vertex itself.
    """
    if r < 1:
        raise MeshError("resolution must be at least 1")
    primal = _remap(_grid_vertices(r))
    return _barycentric_dual(primal, _shorter_diagonal_triangles(primal, r))


def _shorter_diagonal_triangles(points: np.ndarray, r: int) -> np.ndarray:
    """Split each square of an r x r grid along its shorter diagonal.

    Returns (2 r^2, 3) vertex ids, counterclockwise, two rows per square in
    row-major square order; a tie takes the main diagonal (lower left to
    upper right). The lengths are stacked vector-vector products, which sum
    the squares as ``np.linalg.norm`` does for one vector, so ties resolve
    the same way.
    """
    v00, v10, v11, v01 = _grid_quads(r).T

    def length(d):
        return np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])

    on_main = (length(points[v00] - points[v11]) <= length(points[v10] - points[v01]))[:, None]
    first = np.where(on_main, np.stack([v00, v10, v11], 1), np.stack([v00, v10, v01], 1))
    second = np.where(on_main, np.stack([v00, v11, v01], 1), np.stack([v10, v11, v01], 1))
    return np.stack([first, second], axis=1).reshape(-1, 3)


def _barycentric_dual(points: np.ndarray, triangles: np.ndarray) -> PolygonMesh:
    """Polygonal dual of a triangulation: one cell per primal vertex.

    Dual vertices are the triangle barycenters, then the midpoints of the
    boundary edges and the boundary primal vertices, both in half-edge
    order. Half-edge h = 3 t + k of triangle t runs from its corner k to
    corner k + 1. The cell of primal vertex v lists, counterclockwise, the
    triangles around v, found by stepping from each half-edge leaving v to
    the twin of the half-edge entering v in the same triangle: an interior
    vertex starts at its lowest-numbered triangle, a boundary vertex at its
    outgoing boundary edge and is closed through the two boundary midpoints
    and the vertex itself. Every fan is stepped at once, at most
    max-valence times.
    """
    triangles = np.asarray(triangles)
    n_pts, n_tri = len(points), len(triangles)
    src = triangles.ravel()
    dst = np.roll(triangles, -1, axis=1).ravel()
    half = np.arange(len(src))
    prev = half - half % 3 + (half + 2) % 3  # the half-edge entering src[h]
    keys, reverse = src * n_pts + dst, dst * n_pts + src
    by_key = np.argsort(keys)
    at = by_key[np.minimum(np.searchsorted(keys[by_key], reverse), len(keys) - 1)]
    twin = np.where(keys[at] == reverse, at, -1)

    boundary = np.flatnonzero(twin < 0)
    n_mid = len(boundary)
    mid_id = np.full(len(src), -1)
    mid_id[boundary] = n_tri + np.arange(n_mid)
    a, b, c = (points[triangles[:, k]] for k in range(3))
    barycenters = (a + b + c) / 3.0
    mids = 0.5 * (points[src[boundary]] + points[dst[boundary]])
    vertices = np.vstack([barycenters, mids, points[src[boundary]]])

    valence = np.bincount(src, minlength=n_pts)
    used, first = np.unique(src, return_index=True)
    start = np.full(n_pts, -1)
    start[used] = first  # the half-edge leaving v in its lowest triangle
    start[src[boundary]] = boundary
    on_boundary = np.zeros(n_pts, dtype=bool)
    on_boundary[src[boundary]] = True
    lead = 2 * on_boundary

    # row v: primal vertex and outgoing midpoint (boundary only), the fan,
    # incoming midpoint (boundary only); -1 pads
    table = np.full((n_pts, valence.max() + 3), -1)
    table[src[boundary], 0] = n_tri + n_mid + np.arange(n_mid)
    table[src[boundary], 1] = mid_id[boundary]
    step, last = start.copy(), start.copy()
    for s in range(valence.max()):
        live = np.flatnonzero(valence > s)
        last[live] = step[live]
        table[live, lead[live] + s] = last[live] // 3
        step[live] = twin[prev[last[live]]]
    ends = np.flatnonzero(on_boundary)
    table[ends, lead[ends] + valence[ends]] = mid_id[prev[last[ends]]]
    keep = valence > 0
    flat = table[keep][table[keep] >= 0].tolist()
    offsets = np.cumsum(valence[keep] + 3 * on_boundary[keep]).tolist()
    cells = [flat[a:b] for a, b in zip([0] + offsets[:-1], offsets)]
    return derive_topology(vertices, cells)


# Builder of each family from a grid resolution r and a seed; only the
# randomized family reads the seed.
_BUILDERS = {
    "crisscross": lambda r, seed: criss_cross_mesh(r),
    "hexagonal": lambda r, seed: remapped_hexagonal_mesh(r),
    "octagonal": lambda r, seed: nonconvex_octagonal_mesh(r),
    "randomquad": randomized_quadrilateral_mesh,
}
FAMILIES = tuple(_BUILDERS)


def build_family(family: str, n: int, seed: int = 0) -> PolygonMesh:
    """Build a mesh of one of the named families at refinement index n. The
    seed, read by the randomized family only, must be a nonnegative integer."""
    if family not in FAMILIES:
        raise MeshError(f"unknown mesh family {family!r}; choose from {FAMILIES}")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise MeshError(f"seed must be a nonnegative integer, got {seed!r}")
    return _BUILDERS[family](resolution(n), seed)
