import numpy as np
import pytest

from platevem import generators as gen
from platevem.mesh import MeshError, validate_regularity

from oracles import barycentric_dual_walk, regularity_passes
from reference_counts import BY_FAMILY


def test_resolution_mapping():
    assert gen.resolution(0) == 5
    assert gen.resolution(1) == 10
    assert gen.resolution(8) == 80
    with pytest.raises(MeshError):
        gen.resolution(-1)


def test_criss_cross_single_square():
    mesh = gen.criss_cross_mesh(1)
    assert (mesh.n_cells, mesh.n_edges, mesh.n_vertices) == (4, 8, 5)


def test_criss_cross_interior_edges():
    mesh = gen.build_criss_cross(0)
    # recount adjacency by brute force over cell edge traversals
    seen: dict = {}
    for ids in mesh.cells:
        m = len(ids)
        for k in range(m):
            key = tuple(sorted((int(ids[k]), int(ids[(k + 1) % m]))))
            seen[key] = seen.get(key, 0) + 1
    interior = sum(1 for v in seen.values() if v == 2)
    assert len(seen) == 160
    assert interior == int((~mesh.edge_is_boundary).sum())
    assert interior == 140


def test_criss_cross_h():
    assert gen.build_criss_cross(0).h == pytest.approx(0.2)
    assert gen.build_criss_cross(1).h == pytest.approx(0.1)


def test_hexagonal_one_cell_per_primal_vertex():
    # independent count: dual cells must equal the (r+1)^2 primal vertices
    for r in (3, 5):
        mesh = gen.remapped_hexagonal_mesh(r)
        assert mesh.n_cells == (r + 1) ** 2


def reference_shorter_diagonal_triangles(points: np.ndarray, r: int) -> list:
    """Square-by-square split along the shorter diagonal, with one
    ``np.linalg.norm`` per diagonal: the oracle of the vectorized split."""
    triangles = []
    for j in range(r):
        for i in range(r):
            v00 = j * (r + 1) + i
            v10, v11, v01 = v00 + 1, v00 + r + 2, v00 + r + 1
            d_main = np.linalg.norm(points[v00] - points[v11])
            d_anti = np.linalg.norm(points[v10] - points[v01])
            if d_main <= d_anti:
                triangles += [(v00, v10, v11), (v00, v11, v01)]
            else:
                triangles += [(v00, v10, v01), (v10, v11, v01)]
    return triangles


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 7, 10, 20, 30, 40, 50, 80])
def test_shorter_diagonal_split_matches_loop(r):
    """Identical triangle lists, on remapped grids whose near-symmetric
    squares tie or almost tie, and on an unmapped grid, where every square
    ties exactly (lengths are compared after rounding)."""
    for points in (gen._remap(gen._grid_vertices(r)), gen._grid_vertices(r)):
        got = gen._shorter_diagonal_triangles(points, r)
        assert got.shape == (2 * r * r, 3)
        assert list(map(tuple, got.tolist())) == reference_shorter_diagonal_triangles(points, r)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_barycentric_dual_matches_walk(n):
    """The stepped half-edge fans give bitwise the vertices and cell lists
    of the dict walk around each primal vertex."""
    r = gen.resolution(n)
    primal = gen._remap(gen._grid_vertices(r))
    triangles = gen._shorter_diagonal_triangles(primal, r)
    got = gen._barycentric_dual(primal, triangles)
    want = barycentric_dual_walk(primal, triangles.tolist())
    assert got.vertices.tobytes() == want.vertices.tobytes()
    assert np.array_equal(got.cells.offsets, want.cells.offsets)
    assert np.array_equal(got.cells.flat, want.cells.flat)


def reference_octagonal(r: int, notch_ratio: float) -> tuple[np.ndarray, list]:
    """Vertices and cell lists of the octagonal family, one grid node at a
    time: the oracle of the generator's index arithmetic."""
    a = 1.0 / r
    delta = notch_ratio * a
    n_grid = (r + 1) ** 2
    hmid = [
        [(i + 0.5) * a, j * a + ((-1.0) ** i * delta if 0 < j < r else 0.0)]
        for j in range(r + 1)
        for i in range(r)
    ]
    vmid = [
        [i * a + ((-1.0) ** j * delta if 0 < i < r else 0.0), (j + 0.5) * a]
        for j in range(r)
        for i in range(r + 1)
    ]
    vertices = np.vstack([gen._grid_vertices(r), np.array(hmid), np.array(vmid)])

    def gid(i, j):
        return j * (r + 1) + i

    def hid(i, j):
        return n_grid + j * r + i

    def vid(i, j):
        return n_grid + (r + 1) * r + j * (r + 1) + i

    cells = [
        [
            gid(i, j), hid(i, j), gid(i + 1, j), vid(i + 1, j),
            gid(i + 1, j + 1), hid(i, j + 1), gid(i, j + 1), vid(i, j),
        ]
        for j in range(r)
        for i in range(r)
    ]
    return vertices, cells


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_octagonal_and_criss_cross_match_loops(n):
    """Index arithmetic gives bitwise the vertices and cells of the loops
    over grid nodes; criss-cross centers follow the same loop order."""
    r = gen.resolution(n)
    mesh = gen.nonconvex_octagonal_mesh(r, 0.3)
    vertices, cells = reference_octagonal(r, 0.3)
    assert mesh.vertices.tobytes() == vertices.tobytes()
    assert mesh.cells.flat.tolist() == [v for cell in cells for v in cell]
    centers = [[(i + 0.5) / r, (j + 0.5) / r] for j in range(r) for i in range(r)]
    got = gen.criss_cross_mesh(r).vertices[(r + 1) ** 2 :]
    assert got.tobytes() == np.array(centers).tobytes()


def test_octagonal_vertex_formula():
    for r in (3, 5, 7):
        mesh = gen.nonconvex_octagonal_mesh(r)
        assert mesh.n_vertices == (r + 1) ** 2 + 2 * r * (r + 1)


def test_octagonal_interior_cells_nonconvex():
    mesh = gen.build_nonconvex_octagonal(0)
    r = 5
    n_nonconvex = 0
    for ids in mesh.cells:
        verts = mesh.vertices[ids]
        m = len(verts)
        turns = []
        for i in range(m):
            a, b, c = verts[i - 1], verts[i], verts[(i + 1) % m]
            turns.append(
                (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])
            )
        if min(turns) < 0:
            n_nonconvex += 1
    assert n_nonconvex >= r * r - 2  # cut corner cells may stay convex


def test_octagonal_cell_area_equals_square():
    # the notches displace area into the neighbors, so each interior cell
    # keeps the full grid-cell area; verified with an independent shoelace
    mesh = gen.build_nonconvex_octagonal(0)
    side = 1.0 / 5
    interior_cell = 12  # cell (2, 2)
    verts = mesh.vertices[mesh.cells[interior_cell]]
    x, y = verts[:, 0], verts[:, 1]
    shoelace = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
    assert shoelace == pytest.approx(side**2, rel=1e-14)


def test_octagonal_rejects_bad_notch():
    with pytest.raises(MeshError):
        gen.nonconvex_octagonal_mesh(5, 0.0)
    with pytest.raises(MeshError):
        gen.nonconvex_octagonal_mesh(5, 0.5)


def test_randomized_determinism():
    a = gen.build_randomized_quadrilateral(0, seed=123)
    b = gen.build_randomized_quadrilateral(0, seed=123)
    assert np.array_equal(a.vertices, b.vertices)
    c = gen.build_randomized_quadrilateral(0, seed=124)
    assert not np.array_equal(a.vertices, c.vertices)


def test_randomized_topology_independent_of_seed():
    a = gen.build_randomized_quadrilateral(1, seed=1)
    b = gen.build_randomized_quadrilateral(1, seed=99)
    assert all(np.array_equal(x, y) for x, y in zip(a.cells, b.cells))
    assert np.array_equal(a.edge_vertices, b.edge_vertices)


def test_randomized_zero_amplitude_uniform():
    mesh = gen.randomized_quadrilateral_mesh(5, seed=7, box_ratio=0.0)
    assert mesh.h == pytest.approx(np.sqrt(2.0) / 5)


def test_randomized_gives_up_after_retries():
    # boxes three cells wide let neighbouring nodes cross on almost every draw
    with pytest.raises(MeshError, match="could not draw a valid randomized mesh"):
        gen.randomized_quadrilateral_mesh(5, seed=0, box_ratio=3.0)


def test_randomized_h_bounds_over_seeds():
    """Brute-force scan: h stays within the geometric box bounds.

    The corner cells keep the two boundary vertices at distance sqrt(2)/5,
    and no two cell vertices can separate farther than (1 + 2 * 0.4) / 5 in
    each coordinate, so h lies in [0.2 sqrt(2), 0.36 sqrt(2)] for any seed.
    """
    lo = 0.2 * np.sqrt(2.0)
    hi = 0.36 * np.sqrt(2.0)
    hs = [gen.build_randomized_quadrilateral(0, seed=s).h for s in range(1000)]
    assert min(hs) >= lo - 1e-12
    assert max(hs) <= hi + 1e-12


def test_boundary_vertices_stay_fixed():
    mesh = gen.build_randomized_quadrilateral(0, seed=5)
    grid = np.linspace(0.0, 1.0, 6)
    for v in np.flatnonzero(mesh.boundary_vertices):
        x, y = mesh.vertices[v]
        on_side = min(abs(x), abs(1 - x), abs(y), abs(1 - y)) < 1e-15
        assert on_side


@pytest.mark.parametrize("family", gen.FAMILIES)
@pytest.mark.parametrize("n", [0, 1, 2])
def test_family_counts_small(family, n, mesh_cache):
    mesh = mesh_cache(family, n)
    cells, edges, verts = BY_FAMILY[family][n][:3]
    assert (mesh.n_cells, mesh.n_edges, mesh.n_vertices) == (cells, edges, verts)


@pytest.mark.parametrize("family", gen.FAMILIES)
def test_family_invariants(family, mesh_cache):
    mesh = mesh_cache(family, 1)
    assert mesh.n_vertices - mesh.n_edges + mesh.n_cells == 1
    assert mesh.areas.sum() == pytest.approx(1.0, abs=1e-12)
    assert mesh.areas.min() > 0


@pytest.mark.parametrize("family", gen.FAMILIES)
def test_family_regularity(family, mesh_cache):
    report = validate_regularity(mesh_cache(family, 0))
    assert regularity_passes(report, 0.1)


def test_criss_cross_passes_point_two(mesh_cache):
    assert regularity_passes(validate_regularity(mesh_cache("crisscross", 0)), 0.2)


def test_build_family_dispatch():
    with pytest.raises(MeshError):
        gen.build_family("nosuch", 0)
