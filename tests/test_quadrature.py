import numpy as np
import pytest

from platevem.polynomials import exponent_table
from platevem.quadrature import FanPointError, fan_rules, gauss_legendre, polygon_rule

from oracles import ScaledMonomialBasis, cell_frame, edge_rule, point_fan_rules, triangle_rule

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def test_edge_rule_length():
    rule = edge_rule(np.array([0.0, 0.0]), np.array([1.0, 0.0]), 0)
    assert rule.weights.sum() == pytest.approx(1.0)


def test_edge_rule_centered_moments():
    # odd centered power integrates to zero; s^2 gives L/12
    p0, p1 = np.array([0.2, -0.3]), np.array([1.4, 0.7])
    length = np.linalg.norm(p1 - p0)
    mid = 0.5 * (p0 + p1)
    tangent = (p1 - p0) / length
    rule = edge_rule(p0, p1, 3)
    s = (rule.points - mid) @ tangent / length
    assert rule.weights @ s == pytest.approx(0.0, abs=1e-15)
    assert rule.weights @ s**2 == pytest.approx(length / 12.0, rel=1e-13)


def test_triangle_rule_area_and_degree():
    a, b, c = np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0])
    rule = triangle_rule(a, b, c, 0)
    assert rule.weights.sum() == pytest.approx(0.5)
    # exact factorial-form integrals of x^p y^q on the reference triangle
    from math import factorial

    rule = triangle_rule(a, b, c, 6)
    for p, q in exponent_table(6):
        exact = factorial(p) * factorial(q) / factorial(p + q + 2)
        got = rule.weights @ (rule.points[:, 0] ** p * rule.points[:, 1] ** q)
        assert got == pytest.approx(exact, rel=1e-13), (p, q)


def test_polygon_rule_square_monomial():
    rule = polygon_rule(SQUARE, np.array([0.5, 0.5]), 4)
    got = rule.weights @ (rule.points[:, 0] ** 2 * rule.points[:, 1] ** 2)
    assert got == pytest.approx(1.0 / 9.0, abs=1e-14)


def test_polygon_rule_rejects_exterior_fan_point():
    with pytest.raises(ValueError):
        polygon_rule(SQUARE, np.array([2.0, 0.5]), 2)


@pytest.mark.parametrize("degree", [1, 3, 5, 8, 13])
def test_polygon_rule_exactness_on_corpus(degree, small_corpus):
    """Every rule integrates all scaled monomials of its degree to 1e-13.

    Verified against closed-form antiderivatives through the divergence
    theorem: int x^p y^q dx = oint x^{p+1} y^q / (p+1) nx ds with the edge
    integrals done by one-dimensional Gauss rules of ample degree.
    """
    from conftest import divergence_theorem_integrals

    for mesh in small_corpus[:8]:
        frame = cell_frame(mesh, 0)
        rule = polygon_rule(frame.vertices, frame.star, degree)
        assert rule.weights.sum() == pytest.approx(frame.area, rel=1e-13)
        basis = ScaledMonomialBasis(frame.centroid, frame.diameter, degree)
        vals = basis.eval(rule.points)
        got = rule.weights @ vals
        expected = divergence_theorem_integrals(frame, basis)
        scale = np.abs(expected).max()
        assert np.abs(got - expected).max() <= 1e-13 * max(scale, 1.0)


def fan_rule_loop(vertices, center, degree):
    """Fan rule built one sub-triangle at a time from a tensor Gauss grid."""
    xu, wu = gauss_legendre(max(1, (degree + 3) // 2))
    xv, wv = gauss_legendre(max(1, (degree + 2) // 2))
    uu, vv = np.meshgrid(0.5 * (xu + 1.0), 0.5 * (xv + 1.0), indexing="ij")
    ww = (np.outer(0.5 * wu, 0.5 * wv) * uu).ravel()
    xi, eta = (uu * (1.0 - vv)).ravel(), (uu * vv).ravel()
    pts, wts = [], []
    m = len(vertices)
    for i in range(m):
        a, b, c = center, vertices[i], vertices[(i + 1) % m]
        area2 = abs((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))
        pts.append(a[None, :] + xi[:, None] * (b - a)[None, :] + eta[:, None] * (c - a)[None, :])
        wts.append(ww * area2)
    return np.vstack(pts), np.concatenate(wts)


@pytest.mark.parametrize("degree", [0, 4, 9])
def test_polygon_rule_matches_triangle_loop(degree, small_corpus):
    for mesh in small_corpus[:8]:
        frame = cell_frame(mesh, 0)
        rule = polygon_rule(frame.vertices, frame.star, degree)
        points, weights = fan_rule_loop(frame.vertices, frame.star, degree)
        assert np.array_equal(rule.points, points)
        assert np.array_equal(rule.weights, weights)


def test_fan_rules_stack_is_polygon_rule_per_polygon(small_corpus):
    """Each polygon of a stack gets exactly its one-polygon rule."""
    frames = [cell_frame(mesh, 0) for mesh in small_corpus if cell_frame(mesh, 0).n_vertices == 5]
    assert len(frames) > 1
    vertices = np.stack([f.vertices for f in frames])
    x, y, weights = fan_rules(vertices, np.stack([f.star for f in frames]), 7)
    points = np.stack((x, y), axis=-1)
    for k, frame in enumerate(frames):
        rule = polygon_rule(frame.vertices, frame.star, 7)
        assert np.array_equal(points[k], rule.points)
        assert np.array_equal(weights[k], rule.weights)


def test_fan_rules_name_first_bad_polygon():
    stack = np.stack([SQUARE, SQUARE + 1.0, SQUARE])
    centers = np.array([[0.5, 0.5], [0.5, 0.5], [0.2, 0.2]])
    with pytest.raises(FanPointError) as exc:
        fan_rules(stack, centers, 2)
    assert exc.value.position == 1
    centers[1] = [1.5, 1.5]
    assert [a.shape for a in fan_rules(stack, centers, 2)] == [(3, 4 * 4)] * 3


@pytest.mark.parametrize("degree", [0, 4, 9, 13])
def test_fan_rules_match_point_mapping(degree, small_corpus, mesh_cache):
    """The coordinate-major mapping gives bitwise the points and weights of
    the point-by-point one, on the corpus's polygons stacked by vertex
    count and on every group of the hexagonal and octagonal meshes."""
    frames = [cell_frame(mesh, 0) for mesh in small_corpus]
    stacks = []
    for m in sorted({f.n_vertices for f in frames}):
        same = [f for f in frames if f.n_vertices == m]
        stacks.append((np.stack([f.vertices for f in same]), np.stack([f.star for f in same])))
    for family in ("hexagonal", "octagonal"):
        stacks += [(g.vertices, g.stars) for g in mesh_cache(family, 1).cell_groups()]
    for vertices, centers in stacks:
        x, y, weights = fan_rules(vertices, centers, degree)
        points, ref_weights = point_fan_rules(vertices, centers, degree)
        assert np.array_equal(x, points[..., 0]) and np.array_equal(y, points[..., 1])
        assert np.array_equal(weights, ref_weights)
