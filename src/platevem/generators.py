"""Generators for the four polygonal mesh families on the unit square.

Every family starts from a 5x5 grid (refinement index n = 0) and uses a
10n x 10n grid for n >= 1. All generators return a fully derived
:class:`~platevem.mesh.PolygonMesh`.
"""

from __future__ import annotations

import numpy as np

from . import geometry
from .mesh import MeshError, PolygonMesh, derive_topology

FAMILIES = ("crisscross", "hexagonal", "octagonal", "randomquad")

DEFAULT_NOTCH_RATIO = 0.25
RANDOM_BOX_RATIO = 0.8
_MAX_RANDOM_RETRIES = 20


def resolution(n: int) -> int:
    """Grid resolution of refinement index n: 5 for n = 0, else 10 n."""
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise MeshError("refinement index must be a nonnegative integer")
    return 5 if n == 0 else 10 * int(n)


def _grid_vertices(r: int) -> np.ndarray:
    side = np.linspace(0.0, 1.0, r + 1)
    xx, yy = np.meshgrid(side, side, indexing="xy")
    return np.column_stack([xx.ravel(), yy.ravel()])


def _gid(i: int, j: int, r: int) -> int:
    return j * (r + 1) + i


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
    centers = np.array(
        [[(i + 0.5) / r, (j + 0.5) / r] for j in range(r) for i in range(r)]
    )
    vertices = np.vstack([grid, centers])
    quads = _grid_quads(r)
    center_ids = np.repeat(len(grid) + np.arange(r * r), 4)
    cells = np.column_stack(
        [quads.ravel(), np.roll(quads, -1, axis=1).ravel(), center_ids]
    )
    return derive_topology(vertices, cells.tolist())


def randomized_quadrilateral_mesh(
    r: int, seed: int, box_ratio: float = RANDOM_BOX_RATIO
) -> PolygonMesh:
    """r x r quadrilaterals with interior nodes displaced uniformly at random.

    Each interior grid node moves inside an axis-aligned box of side
    ``box_ratio / r`` centered at the node. The draw order is row-major over
    interior nodes, so identical seeds reproduce identical meshes bit for
    bit. A draw that produces a self-intersecting or inverted quadrilateral
    is rejected and redrawn a bounded number of times.
    """
    if r < 1:
        raise MeshError("resolution must be at least 1")
    base = _grid_vertices(r)
    interior = _grid_nodes(r, 1, r)
    rng = np.random.default_rng(seed)
    spacing = 1.0 / r
    half = 0.5 * box_ratio * spacing
    cells = _grid_quads(r)
    for _ in range(_MAX_RANDOM_RETRIES):
        vertices = base.copy()
        if len(interior):
            offsets = rng.uniform(-half, half, size=(len(interior), 2))
            vertices[interior] += offsets
        quads = vertices[cells]
        if np.all(geometry.signed_area(quads) > 0.0) and np.all(
            geometry.is_simple_quad(quads)
        ):
            return derive_topology(vertices, cells.tolist())
    raise MeshError(
        f"could not draw a valid randomized mesh after {_MAX_RANDOM_RETRIES} tries"
    )


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
    # horizontal-edge midpoints: r per row, r + 1 rows
    hmid = []
    for j in range(r + 1):
        for i in range(r):
            y = j * a + ((-1.0) ** i * delta if 0 < j < r else 0.0)
            hmid.append([(i + 0.5) * a, y])
    # vertical-edge midpoints: r + 1 columns, r per column
    vmid = []
    for j in range(r):
        for i in range(r + 1):
            x = i * a + ((-1.0) ** j * delta if 0 < i < r else 0.0)
            vmid.append([x, (j + 0.5) * a])
    vertices = np.vstack([grid, np.array(hmid), np.array(vmid)])

    def hid(i, j):
        return n_grid + j * r + i

    def vid(i, j):
        return n_grid + (r + 1) * r + j * (r + 1) + i

    cells = []
    for j in range(r):
        for i in range(r):
            cells.append(
                [
                    _gid(i, j, r),
                    hid(i, j),
                    _gid(i + 1, j, r),
                    vid(i + 1, j),
                    _gid(i + 1, j + 1, r),
                    hid(i, j + 1),
                    _gid(i, j + 1, r),
                    vid(i, j),
                ]
            )
    return derive_topology(vertices, cells)


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
    return _barycentric_dual(primal, _shorter_diagonal_triangles(primal, r).tolist())


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


def _barycentric_dual(points: np.ndarray, triangles) -> PolygonMesh:
    """Polygonal dual of a triangulation: one cell per primal vertex."""
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


def build_criss_cross(n: int) -> PolygonMesh:
    """Criss-cross triangular mesh at refinement index n."""
    return criss_cross_mesh(resolution(n))


def build_remapped_hexagonal(n: int) -> PolygonMesh:
    """Remapped mainly hexagonal mesh at refinement index n."""
    return remapped_hexagonal_mesh(resolution(n))


def build_nonconvex_octagonal(
    n: int, notch_ratio: float = DEFAULT_NOTCH_RATIO
) -> PolygonMesh:
    """Non-convex octagonal mesh at refinement index n."""
    return nonconvex_octagonal_mesh(resolution(n), notch_ratio)


def build_randomized_quadrilateral(n: int, seed: int) -> PolygonMesh:
    """Randomized quadrilateral mesh at refinement index n, seeded."""
    return randomized_quadrilateral_mesh(resolution(n), seed)


def build_family(family: str, n: int, seed: int = 0) -> PolygonMesh:
    """Build a mesh of one of the named families at refinement index n."""
    if family == "crisscross":
        return build_criss_cross(n)
    if family == "hexagonal":
        return build_remapped_hexagonal(n)
    if family == "octagonal":
        return build_nonconvex_octagonal(n)
    if family == "randomquad":
        return build_randomized_quadrilateral(n, seed)
    raise MeshError(f"unknown mesh family {family!r}; choose from {FAMILIES}")
