import tracemalloc
from itertools import combinations

import numpy as np
import pytest
import scipy.sparse as sp

from platevem import geometry
from platevem.generators import FAMILIES, build_family

from conftest import polygon_corpus
from oracles import all_pairs_diameter, all_triples_chebyshev_ball

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
# L-shapes: non-convex, kernel is the square block next to the notch
LSHAPE = np.array(
    [[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0], [1.0, 2.0], [0.0, 2.0]]
)
LONG_LSHAPE = np.array(
    [[0.0, 0.0], [4.0, 0.0], [4.0, 1.0], [1.0, 1.0], [1.0, 2.0], [0.0, 2.0]]
)
# opens to the right; its kernel is empty
C_SHAPE = np.array(
    [[0, 0], [3, 0], [3, 1], [1, 1], [1, 2], [3, 2], [3, 3], [0, 3]], dtype=float
)


def test_signed_area_square():
    assert geometry.signed_area(SQUARE) == pytest.approx(1.0)
    assert geometry.signed_area(SQUARE[::-1]) == pytest.approx(-1.0)


def test_centroid_and_diameter():
    assert geometry.polygon_centroid(SQUARE) == pytest.approx([0.5, 0.5])
    assert geometry.polygon_centroid(TRIANGLE) == pytest.approx([1 / 3, 1 / 3])
    assert geometry.polygon_diameter(SQUARE) == pytest.approx(np.sqrt(2.0))


def test_centroid_degenerate_raises():
    line = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(ValueError):
        geometry.polygon_centroid(line)


def test_chebyshev_ball_of_square():
    center, radius = geometry.chebyshev_ball(SQUARE)
    assert center == pytest.approx([0.5, 0.5], abs=1e-15)
    assert radius == pytest.approx(0.5, abs=1e-15)


def test_chebyshev_ball_of_lshape():
    # the kernel is the unit block next to the notch, and the ball fills it
    center, radius = geometry.chebyshev_ball(LSHAPE)
    assert center == pytest.approx([0.5, 0.5], abs=1e-15)
    assert radius == pytest.approx(0.5, abs=1e-15)


def test_chebyshev_ball_of_empty_kernel_is_negative():
    # the arms of a C see past each other: y <= 1 and y >= 2 leave r = -1/2
    _, radius = geometry.chebyshev_ball(C_SHAPE)
    assert radius == pytest.approx(-0.5, abs=1e-15)


def test_kernel_clearance_signs():
    assert geometry.kernel_clearance(SQUARE, np.array([0.5, 0.5])) > 0
    assert geometry.kernel_clearance(LSHAPE, np.array([1.5, 0.5])) < 0


def test_chebyshev_center_of_triangle_is_incenter():
    center, radius = geometry.chebyshev_ball(TRIANGLE)
    s = 2.0 + np.sqrt(2.0)  # perimeter
    expected_radius = 2 * 0.5 / s  # area / semiperimeter
    assert radius == pytest.approx(expected_radius, rel=1e-14)
    assert center == pytest.approx([expected_radius, expected_radius], rel=1e-14)


def test_star_point_centroid_for_convex():
    point, clearance = geometry.star_point(SQUARE)
    assert point == pytest.approx([0.5, 0.5])
    assert clearance == pytest.approx(0.5)


def test_star_point_nonconvex_lands_in_kernel():
    # the long L-shape's centroid sits outside the kernel: deep point used
    centroid = geometry.polygon_centroid(LONG_LSHAPE)
    assert geometry.kernel_clearance(LONG_LSHAPE, centroid) < 0
    star, clearance = geometry.star_point(LONG_LSHAPE)
    assert geometry.kernel_clearance(LONG_LSHAPE, star) == pytest.approx(clearance)
    assert clearance > 0


def test_stacked_primitives_match_one_polygon_calls():
    """A stack mixing centroid and Chebyshev star points gives, row by row,
    the same bits as one call per polygon."""
    turns = np.arange(6) * np.pi / 3
    hexagon = np.column_stack([np.cos(turns), np.sin(turns)])
    rng = np.random.default_rng(3)
    stack = np.stack([LSHAPE, LONG_LSHAPE, hexagon, np.roll(LONG_LSHAPE, 2, axis=0)])
    stack = stack * rng.uniform(0.5, 2.0, (4, 1, 1)) + rng.uniform(-1, 1, (4, 1, 2))
    centers, radii = geometry.chebyshev_ball(stack)
    points, clearance = geometry.star_point(stack)
    angles = geometry.min_fan_angle(stack, points)
    for k, poly in enumerate(stack):
        c, r = geometry.chebyshev_ball(poly)
        p, q = geometry.star_point(poly)
        assert c.tobytes() == centers[k].tobytes() and r == radii[k]
        assert p.tobytes() == points[k].tobytes() and q == clearance[k]
        assert geometry.min_fan_angle(poly, p) == angles[k]
    assert not np.array_equal(points[1], geometry.polygon_centroid(stack[1]))


def test_diameter_of_many_vertices_stays_small():
    """1,000 64-gons: under 4 MiB traced, where all vertex pairs at once
    read 156 MiB, with bitwise the all-pairs diameters; and the stacks of
    the four families at n = 1."""
    angles = np.sort(np.random.default_rng(5).uniform(0.0, 2.0 * np.pi, (1000, 64)), axis=1)
    polygons = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        diameters = geometry.polygon_diameter(polygons)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 4 * 2**20
    assert diameters[:100].tobytes() == all_pairs_diameter(polygons[:100]).tobytes()
    stacks = [polygons[0], SQUARE, TRIANGLE, LSHAPE]
    stacks += [g.vertices for f in FAMILIES for g in build_family(f, 1).cell_groups()]
    for vertices in stacks:
        want = all_pairs_diameter(vertices)
        assert geometry.polygon_diameter(vertices).tobytes() == want.tobytes()


def test_min_fan_angle_positive():
    assert geometry.min_fan_angle(SQUARE, np.array([0.5, 0.5])) == pytest.approx(
        np.pi / 4
    )


def test_simple_quad_detection():
    bowtie = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    assert geometry.is_simple_quad(SQUARE)
    assert not geometry.is_simple_quad(bowtie)


def linprog_chebyshev_radii(vertices: np.ndarray) -> np.ndarray:
    """Radii of the largest discs in the kernels of a (G, m, 2) stack of
    polygons, by one SciPy LP: max Σ r_k subject to n_i . x_k + r_k <=
    n_i . a_i for every edge i of polygon k. The LP is block diagonal with
    three variables per polygon, so each block's optimum is its polygon's."""
    from scipy.optimize import linprog

    g, m, _ = vertices.shape
    t = np.roll(vertices, -1, axis=1) - vertices
    n = np.stack([t[..., 1], -t[..., 0]], axis=-1) / np.linalg.norm(t, axis=-1)[..., None]
    rows = np.repeat(np.arange(g * m), 3)
    cols = np.broadcast_to(3 * np.arange(g)[:, None, None] + np.arange(3), (g, m, 3))
    values = np.concatenate([n, np.ones((g, m, 1))], axis=-1)
    res = linprog(
        c=np.tile([0.0, 0.0, -1.0], g),
        A_ub=sp.csr_matrix((values.ravel(), (rows, cols.ravel())), shape=(g * m, 3 * g)),
        b_ub=(n * vertices).sum(axis=-1).ravel(),
        bounds=[(None, None)] * (3 * g),
        method="highs",
    )
    assert res.success
    return res.x[2::3]


def test_chebyshev_ball_matches_linear_program():
    """Every cell of the four families at n = 0-2 and of a seeded corpus:
    the exact vertex enumeration agrees with the LP to 1e-12 diameters."""
    meshes = [build_family(f, n) for f in FAMILIES for n in (0, 1, 2)]
    meshes += polygon_corpus(7, 100)
    checked = 0
    for mesh in meshes:
        for group in mesh.cell_groups():
            _, radii = geometry.chebyshev_ball(group.vertices)
            expected = linprog_chebyshev_radii(group.vertices)
            assert np.all(np.abs(radii - expected) <= 1e-12 * group.diameters)
            checked += len(radii)
    assert checked > 3000


def regular_polygon(m: int) -> np.ndarray:
    """Regular m-gon of circumradius 2 about (0.3, -0.1), counterclockwise."""
    turns = 2.0 * np.pi * np.arange(m) / m
    return 2.0 * np.column_stack([np.cos(turns), np.sin(turns)]) + [0.3, -0.1]


@pytest.mark.parametrize("m", [48, 64])
def test_chebyshev_ball_of_many_vertices_stays_small(m):
    """A regular 48- or 64-gon takes its C(m, 3) edge triples in chunks:
    under 2 MiB traced, where the all-triples pass reads 20.7 MiB at
    m = 48, with bitwise its centre and radius. Its many tied candidates
    check that the first maximum wins."""
    poly = regular_polygon(m)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        centre, radius = geometry.chebyshev_ball(poly)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    ref_centre, ref_radius = all_triples_chebyshev_ball(poly)
    assert peak <= 2 * 2**20
    assert centre.tobytes() == ref_centre.tobytes() and radius == ref_radius
    assert radius == pytest.approx(2.0 * np.cos(np.pi / m), rel=1e-12)


def off_centroid_polygons(count: int, m: int, seed: int) -> np.ndarray:
    """``count`` seeded star-shaped m-gons whose centroid lies outside the
    kernel: radii 1.0 or 0.15 at sorted random angles, kept when the origin
    clears the kernel boundary by at least 1e-3."""
    rng = np.random.default_rng(seed)
    kept, found = [], 0
    while found < count:
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, (4 * count, m)), axis=1)
        radii = rng.choice([1.0, 0.15], (4 * count, m))
        polygons = radii[..., None] * np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        star = geometry.kernel_clearance(polygons, np.zeros((len(polygons), 2))) >= 1e-3
        centroid = geometry.kernel_clearance(polygons, geometry.polygon_centroid(polygons))
        off = centroid <= geometry.STAR_CLEARANCE * geometry.polygon_diameter(polygons)
        kept.append(polygons[star & off])
        found += len(kept[-1])
    return np.concatenate(kept)[:count]


def test_star_points_of_many_off_centroid_polygons_stay_small():
    """1,000 16-gons, each needing the Chebyshev ball: under 16 MiB traced,
    where one pass over all of them reads 114.5 MiB, with bitwise the
    all-triples centres and clearances."""
    polygons = off_centroid_polygons(1000, 16, seed=0)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        points, clearance = geometry.star_point(polygons)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 16 * 2**20
    for block in np.array_split(np.arange(len(polygons)), 20):
        centres, radii = all_triples_chebyshev_ball(polygons[block])
        assert points[block].tobytes() == centres.tobytes()
        assert clearance[block].tobytes() == radii.tobytes()


def test_chebyshev_ball_matches_all_triples():
    """Every group of the four families at n = 0, 1 and of a seeded corpus,
    and stacks of regular polygons with more triples than one chunk: the
    chunked running best gives bitwise the all-triples centres and radii."""
    stacks = [
        g.vertices for f in FAMILIES for n in (0, 1) for g in build_family(f, n).cell_groups()
    ]
    stacks += [g.vertices for mesh in polygon_corpus(7, 40) for g in mesh.cell_groups()]
    turns = 2.0 * np.pi * (np.arange(16) + np.random.default_rng(4).uniform(0.2, 0.8, 16)) / 16
    jittered = np.column_stack([np.cos(turns), np.sin(turns)])
    regular = regular_polygon(16)
    stacks.append(np.stack([regular, np.roll(regular, 5, axis=0), jittered]))
    for vertices in stacks:
        centres, radii = geometry.chebyshev_ball(vertices)
        ref_centres, ref_radii = all_triples_chebyshev_ball(vertices)
        assert centres.tobytes() == ref_centres.tobytes()
        assert radii.tobytes() == ref_radii.tobytes()


def test_edge_triples_are_the_lexicographic_combinations():
    """The arithmetic triples are ``itertools.combinations`` in the same
    order, cut into chunks of TRIPLE_CHUNK with only the last one shorter."""
    for m in range(3, 65):
        chunks = [np.stack(chunk, axis=1) for chunk in geometry._edge_triples(m)]
        assert all(len(chunk) == geometry.TRIPLE_CHUNK for chunk in chunks[:-1]), m
        assert 0 < len(chunks[-1]) <= geometry.TRIPLE_CHUNK, m
        assert np.array_equal(np.concatenate(chunks), list(combinations(range(m), 3))), m
