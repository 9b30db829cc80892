import os
import subprocess
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from platevem import geometry
from platevem.assembly import BoundarySpec, PlateSolver, interpolate
from platevem.generators import FAMILIES, build_family
from platevem.local import ProjectorError
from platevem.mesh import (
    MeshError,
    MeshIOError,
    RegularityReport,
    derive_topology,
    read_mesh,
    validate_regularity,
    write_mesh,
)
from platevem.multifrontal import SolverError
from platevem.plate import DEFAULT_MATERIAL

from oracles import (
    all_pairs_diameter,
    all_triples_chebyshev_ball,
    cell_frame,
    mesh_edge,
    outward_normal,
    regularity_passes,
)

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
TWO_SQUARES = np.array([[0, 0], [1, 0], [2, 0], [2, 1], [1, 1], [0, 1]], dtype=float)
# A pentagon, a long L whose centroid lies outside its kernel, and a triangle,
# in that order: three vertex counts, one cell needing the star-point program.
RAGGED_VERTICES = np.array(
    [[0, 0], [4, 0], [4, 1], [1, 1], [1, 2], [0, 2], [4, 2], [2.5, 2], [5, 1]],
    dtype=float,
)
RAGGED_CELLS = [[3, 2, 6, 7, 4], [0, 1, 2, 3, 4, 5], [1, 8, 2]]
# A U whose two arms cannot see each other's tips: the kernel is empty.
U_SHAPE = np.array(
    [[0, 0], [3, 0], [3, 3], [2, 3], [2, 1], [1, 1], [1, 3], [0, 3]], dtype=float
)


def reference_topology(vertices: np.ndarray, cells) -> dict:
    """Cell-by-cell topology and geometry: the oracle of ``derive_topology``.

    Edges are numbered as a dict of (lower, higher) vertex pairs fills up
    while the cells are walked in order; each cell's geometry comes from the
    one-polygon primitives.
    """
    vertices = np.asarray(vertices, dtype=float)
    edge_index: dict[tuple[int, int], int] = {}
    edge_cells: list[list[int]] = []
    cell_edges, cell_edge_signs = [], []
    for c, cell in enumerate(cells):
        ids = np.asarray(cell, dtype=int)
        m = len(ids)
        eids = np.empty(m, dtype=int)
        signs = np.empty(m, dtype=int)
        for k in range(m):
            a, b = int(ids[k]), int(ids[(k + 1) % m])
            key = (a, b) if a < b else (b, a)
            eid = edge_index.setdefault(key, len(edge_index))
            if eid == len(edge_cells):
                edge_cells.append([])
            edge_cells[eid].append(c)
            eids[k] = eid
            signs[k] = 1 if a < b else -1
        cell_edges.append(eids)
        cell_edge_signs.append(signs)
    polygons = [vertices[np.asarray(cell, dtype=int)] for cell in cells]
    edge_vertices = np.array(list(edge_index), dtype=int)
    edge_cells_arr = np.full((len(edge_cells), 2), -1, dtype=int)
    for eid, owners in enumerate(edge_cells):
        edge_cells_arr[eid, : len(owners)] = owners
    boundary_vertices = np.zeros(len(vertices), dtype=bool)
    boundary_vertices[edge_vertices[edge_cells_arr[:, 1] < 0].ravel()] = True
    return {
        "edge_vertices": edge_vertices,
        "edge_cells": edge_cells_arr,
        "cell_edges": np.concatenate(cell_edges),
        "cell_edge_signs": np.concatenate(cell_edge_signs),
        "areas": np.array([float(geometry.signed_area(p)) for p in polygons]),
        "centroids": np.array([geometry.polygon_centroid(p) for p in polygons]),
        "diameters": np.array([float(all_pairs_diameter(p)) for p in polygons]),
        "stars": np.array([geometry.star_point(p)[0] for p in polygons]),
        "boundary_vertices": boundary_vertices,
    }


def cell_edge_signs(mesh) -> np.ndarray:
    """The edge signs of every cell, in cell order and of the groups' dtype."""
    groups = mesh.cell_groups()
    signs = np.concatenate([group.edge_signs.ravel() for group in groups])
    slots = np.concatenate(
        [(mesh.cells.offsets[g.index][:, None] + np.arange(g.n_vertices)).ravel() for g in groups]
    )
    out = np.empty_like(signs)
    out[slots] = signs
    return out


def assert_matches_reference(mesh) -> None:
    expected = reference_topology(mesh.vertices, list(mesh.cells))
    for name, want in expected.items():
        got = cell_edge_signs(mesh) if name == "cell_edge_signs" else getattr(mesh, name)
        if name == "cell_edges":
            assert np.array_equal(got.offsets, mesh.cells.offsets), name
            got = got.flat
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


ORACLE_MESHES = [(f, n, 0) for f in FAMILIES if f != "randomquad" for n in (0, 1, 2)]
ORACLE_MESHES += [("randomquad", n, seed) for n in (0, 1, 2) for seed in range(10)]


@pytest.mark.parametrize("family,n,seed", ORACLE_MESHES)
def test_topology_matches_cellwise_reference(family, n, seed):
    assert_matches_reference(build_family(family, n, seed))


def test_topology_matches_reference_on_star_corpus(small_corpus):
    for mesh in small_corpus:
        assert_matches_reference(mesh)


def test_topology_matches_reference_on_ragged_mesh():
    mesh = derive_topology(RAGGED_VERTICES, RAGGED_CELLS)
    assert list(mesh.cells.lengths) == [5, 6, 3]
    lshape = mesh.vertices[mesh.cells[1]]
    assert geometry.kernel_clearance(lshape, mesh.centroids[1]) < 0
    assert_matches_reference(mesh)
    # the same cells shuffled, so each vertex-count stack is scattered
    hexagonal = build_family("hexagonal", 1)
    order = np.random.default_rng(7).permutation(hexagonal.n_cells)
    assert_matches_reference(
        derive_topology(hexagonal.vertices, [hexagonal.cells[c] for c in order])
    )


def test_single_square_topology():
    mesh = derive_topology(SQUARE, [[0, 1, 2, 3]])
    assert mesh.n_edges == 4
    assert mesh.edge_is_boundary.all()
    assert mesh.boundary_vertices.all()
    assert mesh.areas[0] == pytest.approx(1.0)
    assert mesh.diameters[0] == pytest.approx(np.sqrt(2.0))
    assert mesh.centroids[0] == pytest.approx([0.5, 0.5])


def test_two_squares_shared_edge():
    mesh = derive_topology(TWO_SQUARES, [[0, 1, 4, 5], [1, 2, 3, 4]])
    assert mesh.n_edges == 7
    assert int((~mesh.edge_is_boundary).sum()) == 1
    interior = np.flatnonzero(~mesh.edge_is_boundary)[0]
    assert sorted(mesh.edge_vertices[interior]) == [1, 4]


def test_interior_edge_opposite_traversal():
    mesh = derive_topology(TWO_SQUARES, [[0, 1, 4, 5], [1, 2, 3, 4]])
    interior = np.flatnonzero(~mesh.edge_is_boundary)[0]
    c0, c1 = mesh.edge_cells[interior]
    signs = []
    for c in (c0, c1):
        local = list(mesh.cell_edges[c]).index(interior)
        signs.append(mesh.cell_group([c]).edge_signs[0, local])
    assert signs[0] == -signs[1]


def test_rejects_clockwise_cell():
    with pytest.raises(MeshError, match="area"):
        derive_topology(SQUARE, [[0, 3, 2, 1]])


def test_rejects_duplicate_vertex():
    with pytest.raises(MeshError, match="repeats"):
        derive_topology(SQUARE, [[0, 1, 1, 2]])


def test_rejects_bad_index():
    with pytest.raises(MeshError, match="out of range"):
        derive_topology(SQUARE, [[0, 1, 9]])


def test_rejects_fractional_index():
    # the index used to truncate, building a triangle on vertex 2
    with pytest.raises(MeshError, match="cell 0 has a vertex index that is not an integer"):
        derive_topology(SQUARE, [[0, 1, 2.7]])


def test_rejects_huge_index():
    with pytest.raises(MeshError, match="cell 0 references a vertex out of range"):
        derive_topology(SQUARE, [[0, 1, 2**70]])


def test_rejects_ragged_vertex_rows():
    with pytest.raises(MeshError, match=r"\(n, 2\) array"):
        derive_topology([[0, 0], [1], [1, 1]], [[0, 1, 2]])


def test_rejects_nonmanifold_edge():
    verts = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, -1]], dtype=float)
    cells = [[0, 1, 2], [0, 2, 3], [0, 1, 2][::-1]]
    with pytest.raises(MeshError, match="non-manifold"):
        derive_topology(verts, cells)


def test_rejects_short_cell():
    with pytest.raises(MeshError, match="cell 1 has fewer than 3 vertices"):
        derive_topology(SQUARE, [[0, 1, 2], [2, 3]])


def test_rejects_neighbours_traversing_edge_in_same_direction():
    with pytest.raises(MeshError, match=r"edge \(1, 4\) traversed twice in the same"):
        derive_topology(TWO_SQUARES, [[0, 1, 4, 5], [4, 3, 2, 1]])


def test_rejects_unused_vertex():
    verts = np.vstack([SQUARE, [[2.0, 2.0]]])
    with pytest.raises(MeshError, match="Euler identity"):
        derive_topology(verts, [[0, 1, 2, 3]])


def test_rejects_non_finite_coordinates():
    verts = SQUARE.copy()
    verts[2, 1] = np.nan
    with pytest.raises(MeshError, match="finite"):
        derive_topology(verts, [[0, 1, 2, 3]])


def test_rejects_vertices_not_n_by_2():
    with pytest.raises(MeshError, match=r"\(n, 2\) array"):
        derive_topology(np.zeros((4, 3)), [[0, 1, 2, 3]])


def test_rejects_cell_with_empty_kernel():
    with pytest.raises(MeshError, match="cell 0: polygon has an empty kernel"):
        derive_topology(U_SHAPE, [list(range(8))])


def test_rejects_zero_length_edge():
    # the unit square with its corner (1, 0) listed under two vertex ids
    verts = np.array([[0, 0], [1, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    with pytest.raises(MeshError, match="cell 1 has a zero-length edge"):
        derive_topology(np.vstack([verts, [[2, 0]]]), [[2, 5, 3], [0, 1, 2, 3, 4]])


# A long L whose centroid lies outside its kernel [0, 1]^2, and a C-shaped
# octagon whose kernel is empty.
LONG_L = np.array([[0, 0], [4, 0], [4, 1], [1, 1], [1, 4], [0, 4]], dtype=float)
C_OCTAGON = np.array(
    [[0, 0], [3, 0], [3, 1], [1, 1], [1, 2], [3, 2], [3, 3], [0, 3]], dtype=float
)


@pytest.mark.parametrize("scale", [1e3, 1.0, 1e-3, 1e-7, 1e-8, 1e-9])
def test_star_points_are_scale_invariant(scale):
    mesh = derive_topology(scale * LONG_L, [list(range(6))])
    assert mesh.stars[0] == pytest.approx([0.5 * scale, 0.5 * scale], rel=1e-12)
    ratio = validate_regularity(mesh).min_star_radius_ratio
    assert ratio == pytest.approx(1.0 / (8.0 * np.sqrt(2.0)), rel=1e-12)
    with pytest.raises(MeshError, match="cell 0: polygon has an empty kernel"):
        derive_topology(scale * C_OCTAGON, [list(range(8))])


@pytest.mark.parametrize("scale", [1e-3, 1e-5, 1e-7])
def test_geometry_of_small_cell_far_from_origin(scale):
    """The long L shrunk and moved to (1e3, 1e3). Shoelace sums about the
    origin cancel there: they put the centroid outside the cell at 1e-3,
    the area 0.2% off at 1e-5 and at 0.0 at 1e-7."""
    offset = np.array([1e3, 1e3])
    mesh = derive_topology(scale * LONG_L + offset, [list(range(6))])
    assert mesh.areas[0] == pytest.approx(7.0 * scale**2, rel=1e-5)
    centroid = (mesh.centroids[0] - offset) / scale
    assert centroid == pytest.approx([9.5 / 7.0, 9.5 / 7.0], rel=1e-5)


def test_first_cell_without_star_point_is_named():
    """Both cells lack a star point. The hexagons' stack is solved before
    the octagons', yet the lower cell id is the one reported."""
    arms = np.array([[-3, 3], [-0.5, 2], [-0.5, 1], [-3, 0]])  # a C opening left
    verts = np.vstack([C_OCTAGON, arms])
    octagon, hexagon = list(range(8)), [0, 7, 8, 9, 10, 11]
    for cells in ([octagon, hexagon], [hexagon, octagon]):
        with pytest.raises(MeshError, match="cell 0: polygon has an empty kernel"):
            derive_topology(verts, cells)


def test_meshes_and_reports_need_no_linear_program_solver():
    code = (
        "import sys\n"
        "from platevem.generators import FAMILIES, build_family\n"
        "from platevem.mesh import validate_regularity\n"
        "for f in FAMILIES:\n"
        "    for n in (0, 1, 2):\n"
        "        validate_regularity(build_family(f, n))\n"
        "assert 'scipy.optimize' not in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=120)


def test_frame_outward_normals_point_outward():
    mesh = derive_topology(SQUARE, [[0, 1, 2, 3]])
    frame = cell_frame(mesh, 0)
    for i in range(4):
        mid = 0.5 * (frame.vertices[i] + frame.vertices[(i + 1) % 4])
        outside = mid + 1e-3 * outward_normal(frame, i)
        assert not (0 < outside[0] < 1 and 0 < outside[1] < 1)


def test_edge_view():
    mesh = derive_topology(SQUARE, [[0, 1, 2, 3]])
    edge = mesh_edge(mesh, 0)
    assert edge.is_boundary
    assert edge.length == pytest.approx(1.0)
    assert edge.normal @ edge.tangent == pytest.approx(0.0)
    assert np.linalg.norm(edge.normal) == pytest.approx(1.0)


def test_regularity_uniform_square():
    mesh = derive_topology(TWO_SQUARES, [[0, 1, 4, 5], [1, 2, 3, 4]])
    report = validate_regularity(mesh)
    assert report.min_edge_to_diameter_ratio == pytest.approx(1.0 / np.sqrt(2.0))
    assert regularity_passes(report, 0.3)


@pytest.mark.parametrize("family", FAMILIES)
def test_regularity_in_chunks_matches_one_pass(family):
    """Cell chunks give exactly the report of one pass per vertex count
    with every edge triple at once; each family at n = 1 has a group
    larger than one chunk."""
    mesh = build_family(family, 1)
    assert np.bincount(mesh.cells.lengths).max() > geometry.POLYGON_CHUNK
    star = edge = angle = np.inf
    for group in mesh.cell_groups():
        _, radii = all_triples_chebyshev_ball(group.vertices)
        star = min(star, (np.maximum(radii, 0.0) / group.diameters).min())
        edge = min(edge, (group.edge_lengths / group.diameters[:, None]).min())
        angle = min(angle, geometry.min_fan_angle(group.vertices, group.stars).min())
    expected = RegularityReport(float(star), float(edge), float(angle))
    assert validate_regularity(mesh) == expected


def test_chebyshev_ball_solved_once_per_cell(monkeypatch):
    """The long L and the square completing it to [0, 4]^2: the L's star
    point is off its centroid, the square's is its centroid. Building the
    mesh and its report solves the ball once per cell, and the report is
    the one from solving every cell's ball in the report."""
    vertices = np.vstack([LONG_L, [[4.0, 4.0]]])
    cells = [list(range(6)), [3, 2, 6, 4]]
    mesh = derive_topology(vertices, cells)
    star = edge = angle = np.inf
    for group in mesh.cell_groups():
        _, radii = geometry.chebyshev_ball(group.vertices)
        star = min(star, (np.maximum(radii, 0.0) / group.diameters).min())
        edge = min(edge, (group.edge_lengths / group.diameters[:, None]).min())
        angle = min(angle, geometry.min_fan_angle(group.vertices, group.stars).min())
    expected = RegularityReport(float(star), float(edge), float(angle))

    solved = []
    ball = geometry.chebyshev_ball

    def counted_ball(polygons):
        solved.append(len(polygons))
        return ball(polygons)

    monkeypatch.setattr(geometry, "chebyshev_ball", counted_ball)
    mesh = derive_topology(vertices, cells)
    assert sum(solved) == 1
    assert validate_regularity(mesh) == expected
    assert sum(solved) == mesh.n_cells


def fuzz_polygon(rng: np.random.Generator, m: int) -> np.ndarray:
    """A star-shaped m-gon: radii 0.1 to 1 at sorted random angles about a
    random centre, squeezed along y by up to nine decades."""
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, m))
    radii = rng.uniform(0.1, 1.0, m)
    aspect = 10.0 ** rng.uniform(-9.0, 0.0)
    ring = np.column_stack([np.cos(angles), aspect * np.sin(angles)])
    return rng.uniform(-1.0, 1.0, 2) + radii[:, None] * ring


def quadratic(x, y):
    return 1.0 + x - 2.0 * y + x * x - x * y + 0.5 * y * y


def quadratic_gradient(x, y):
    return 1.0 + 2.0 * x - y, -2.0 - x + y


def test_star_polygon_fuzz_solves_or_raises_classified_errors():
    """Seeded star-shaped one-cell meshes with 3 to 32 vertices, and a 48-
    and a 64-gon, through the mesh build, the regularity report and one
    order-2 solve with strong quadratic data: each gives a finite solution
    or a MeshError, ProjectorError or SolverError, under 2 MiB traced."""
    rng = np.random.default_rng(19)
    outcomes = Counter()
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        for m in [*range(3, 33), 48, 64]:
            vertices = fuzz_polygon(rng, m)
            tracemalloc.reset_peak()
            try:
                mesh = derive_topology(vertices, [list(range(m))])
                validate_regularity(mesh)
                solver = PlateSolver(mesh, 2, DEFAULT_MATERIAL)
                bc = BoundarySpec.dirichlet(quadratic, quadratic_gradient)
                solution = solver.solve(lambda x, y: np.zeros_like(x), bc)
                assert np.all(np.isfinite(solution)), m
                outcome = "solved"
            except (MeshError, ProjectorError, SolverError) as exc:
                outcome = type(exc).__name__
            assert tracemalloc.get_traced_memory()[1] <= 2 * 2**20, m
            outcomes[outcome] += 1
    finally:
        if not tracing:
            tracemalloc.stop()
    assert outcomes["solved"] > 0 and len(outcomes) > 1, outcomes


@pytest.mark.parametrize("order, n_free", [(4, 1), (5, 3)])
def test_star_polygon_fuzz_reproduces_the_quadratic_at_high_order(order, n_free):
    """The fuzz polygons at orders 4 and 5, where one or three interior
    moments of the one cell are free: each case that solves reproduces the
    quadratic's interpolant within the 1e-8 patch gate, relative to the
    interpolant's largest entry; the others raise MeshError,
    ProjectorError or SolverError."""
    rng = np.random.default_rng(19)
    outcomes = Counter()
    for m in [*range(3, 33), 48, 64]:
        vertices = fuzz_polygon(rng, m)
        try:
            mesh = derive_topology(vertices, [list(range(m))])
            solver = PlateSolver(mesh, order, DEFAULT_MATERIAL)
            bc = BoundarySpec.dirichlet(quadratic, quadratic_gradient)
            solution = solver.solve(lambda x, y: np.zeros_like(x), bc)
        except (MeshError, ProjectorError, SolverError) as exc:
            outcomes[type(exc).__name__] += 1
            continue
        want = interpolate(solver.dofmap, quadratic, quadratic_gradient)
        assert len(solver.free) == n_free, m
        assert np.abs(solution - want).max() <= 1e-8 * np.abs(want).max(), m
        outcomes["solved"] += 1
    assert outcomes["solved"] > 0, outcomes


def test_regularity_flags_short_edge():
    eps = 1e-9
    verts = np.array([[0, 0], [1, 0], [1 + eps, eps], [0, 1]], dtype=float)
    mesh = derive_topology(verts, [[0, 1, 2, 3]])
    report = validate_regularity(mesh)
    assert not regularity_passes(report, 0.01)


def test_mesh_io_roundtrip(tmp_path):
    mesh = build_family("crisscross", 0)
    path = tmp_path / "mesh.json"
    write_mesh(mesh, path)
    back = read_mesh(path)
    assert back.n_cells == 100 and back.n_edges == 160 and back.n_vertices == 61
    assert np.array_equal(back.vertices, mesh.vertices)
    assert all(np.array_equal(a, b) for a, b in zip(back.cells, mesh.cells))


def test_mesh_io_rejects_empty_cells(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text('{"vertices": [[0,0],[1,0],[0,1]], "cells": []}')
    with pytest.raises(MeshIOError):
        read_mesh(path)


def test_mesh_io_rejects_bad_index(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"vertices": [[0,0],[1,0],[0,1]], "cells": [[0,1,1000000000]]}')
    with pytest.raises(MeshIOError):
        read_mesh(path)


def test_mesh_io_rejects_garbage(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("not json at all {")
    with pytest.raises(MeshIOError):
        read_mesh(path)


TRIANGLE_FILE = '{{"vertices": [[0, 0], [1, 0], [0, 1]], "cells": {cells}}}'
# Cell lists of the wrong type or out of range; each must raise MeshIOError.
MALFORMED_CELLS = {
    "string index": '[[0, "1", 2]]',
    "cells not a list": "5",
    "cell not a list": "[0, 1, 2]",
    "nested cell": "[[0, [1], 2]]",
    "huge index": f"[[0, 1, {10**30}]]",
    "float index": "[[0, 1, 2.5]]",
    "bool index": "[[0, true, 2]]",
    "negative index": "[[0, 1, -1]]",
    "index past the end": "[[0, 1, 3]]",
    "cells an object": '{"0": [0, 1, 2]}',
}


@pytest.mark.parametrize("name", sorted(MALFORMED_CELLS))
def test_malformed_cell_lists_raise_mesh_io_error(name, tmp_path):
    path = tmp_path / "mesh.json"
    path.write_text(TRIANGLE_FILE.format(cells=MALFORMED_CELLS[name]))
    with pytest.raises(MeshIOError):
        read_mesh(path)


# Coordinates follow the cells' rule: a JSON int or float, never a bool.
TRIANGLE_CELL_FILE = '{{"vertices": {vertices}, "cells": [[0, 1, 2]]}}'
MALFORMED_VERTICES = {
    "bool coordinate": "[[0, 0], [true, 0], [0, 1]]",
    "string coordinate": '[[0, 0], ["1", 0], [0, 1]]',
    "huge coordinate": f"[[0, 0], [1, 0], [0, {10**400}]]",
}


@pytest.mark.parametrize("name", sorted(MALFORMED_VERTICES))
def test_malformed_vertex_lists_raise_mesh_io_error(name, tmp_path):
    path = tmp_path / "mesh.json"
    path.write_text(TRIANGLE_CELL_FILE.format(vertices=MALFORMED_VERTICES[name]))
    with pytest.raises(MeshIOError):
        read_mesh(path)


def test_corrupted_mesh_files_fail_classified(tmp_path):
    """Seeded truncations and byte flips of a written mesh either read back
    or raise MeshIOError or MeshError, never another exception."""
    path = tmp_path / "mesh.json"
    write_mesh(build_family("hexagonal", 0), path)
    text = path.read_bytes()
    rng = np.random.default_rng(41)
    corrupted = [text[: int(cut)] for cut in rng.integers(0, len(text), 40)]
    for _ in range(80):
        flipped = bytearray(text)
        for at in rng.integers(0, len(text), int(rng.integers(1, 4))):
            flipped[at] ^= int(rng.integers(1, 256))
        corrupted.append(bytes(flipped))
    for k, data in enumerate(corrupted):
        path.write_bytes(data)
        try:
            read_mesh(path)
        except (MeshIOError, MeshError):
            pass
        except Exception as exc:  # noqa: BLE001 - the test is that none escape
            pytest.fail(f"corruption {k} escaped as {type(exc).__name__}: {exc}")
