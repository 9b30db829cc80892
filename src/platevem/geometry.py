"""Planar polygon primitives: areas, centroids, diameters, kernels, star points.

Every polygon primitive takes one polygon as an (m, 2) array or a stack of
polygons with one vertex count as (..., m, 2), and returns one value per
polygon.
"""

from __future__ import annotations

import numpy as np

# A star point must clear the kernel boundary by this fraction of the diameter.
STAR_CLEARANCE = 1e-12

# Polygons and edge triples per pass of chebyshev_ball: its candidate
# arrays hold at most POLYGON_CHUNK x TRIPLE_CHUNK x m x 2 entries, whatever
# the number of polygons and their vertex count m.
POLYGON_CHUNK = 64
TRIPLE_CHUNK = 256


def _shoelace(vertices: np.ndarray):
    """Coordinates about each polygon's first vertex, (x, y, x_next, y_next),
    and the cross products of consecutive vertices in them.

    Summing about a vertex of the polygon, not the origin, keeps the sums
    free of cancellation for a small polygon far from the origin.
    """
    rel = vertices - vertices[..., :1, :]
    x, y = rel[..., 0], rel[..., 1]
    xn = np.roll(x, -1, axis=-1)
    yn = np.roll(y, -1, axis=-1)
    return x, y, xn, yn, x * yn - xn * y


def signed_area(vertices: np.ndarray):
    """Shoelace signed area of a polygon (positive for counterclockwise)."""
    cross = _shoelace(vertices)[-1]
    return 0.5 * np.sum(cross, axis=-1)


def polygon_centroid(vertices: np.ndarray) -> np.ndarray:
    """Area centroid of a simple polygon with nonzero area, shape (..., 2)."""
    x, y, xn, yn, cross = _shoelace(vertices)
    area = 0.5 * np.sum(cross, axis=-1)
    if np.any(area == 0.0):
        raise ValueError("degenerate polygon: zero area")
    cx = np.sum((x + xn) * cross, axis=-1) / (6.0 * area)
    cy = np.sum((y + yn) * cross, axis=-1) / (6.0 * area)
    return vertices[..., 0, :] + np.stack([cx, cy], axis=-1)


def polygon_diameter(vertices: np.ndarray):
    """Largest distance between two vertices (the diameter), over pairs up to m / 2 apart."""
    shifts = range(1, vertices.shape[-2] // 2 + 1)
    chords = (vertices - np.roll(vertices, -s, axis=-2) for s in shifts)
    return np.max([np.sqrt((c**2).sum(axis=-1)).max(axis=-1) for c in chords], axis=0)


def kernel_clearance(vertices: np.ndarray, point: np.ndarray):
    """Signed distance from ``point`` to the polygon kernel boundary.

    Positive iff the whole polygon is visible from ``point`` (the point lies
    in the kernel), with the value giving the distance to the nearest edge
    line among those that constrain visibility. ``point`` has shape (..., 2),
    one point per polygon.
    """
    a = vertices
    b = np.roll(vertices, -1, axis=-2)
    t = b - a
    lengths = np.sqrt((t**2).sum(axis=-1))
    rel = point[..., None, :] - a
    cross = t[..., 0] * rel[..., 1] - t[..., 1] * rel[..., 0]
    return np.min(cross / lengths, axis=-1)


def _edge_triples(m: int):
    """The C(m, 3) edge triples i < j < k in lexicographic order, as index
    arrays i, j, k of at most TRIPLE_CHUNK triples each.

    Triple number t of first index i pairs i with the (j, k) pairs j > i,
    a suffix of the lexicographic pairs j < k, so each chunk is found by
    arithmetic on the C(m, 2) pairs, never holding all triples at once.
    """
    r = np.arange(m)
    j, k = np.nonzero(r[:, None] < r)
    suffix = np.searchsorted(j, r, side="right")  # first pair with j > i
    starts = np.concatenate([[0], np.cumsum(len(j) - suffix)])
    for t0 in range(0, starts[-1], TRIPLE_CHUNK):
        t = np.arange(t0, min(t0 + TRIPLE_CHUNK, starts[-1]))
        i = np.searchsorted(starts, t, side="right") - 1
        pair = suffix[i] + t - starts[i]
        yield i, j[pair], k[pair]


def chebyshev_ball(vertices: np.ndarray):
    """Largest disc inside each polygon's kernel: centres (..., 2) and radii (...).

    The kernel is the intersection of the inner half-planes of the edges, so
    the disc solves the linear program max r subject to n_i . x + r <= n_i . a_i
    for every edge (unit outward normal n_i, start vertex a_i). Its optimum
    is a vertex, where three constraints are tight: in centroid-centred,
    diameter-scaled coordinates every triple of edges is solved exactly and
    the candidate centre with the largest clearance is kept, the first one
    among equals. The polygons are taken POLYGON_CHUNK at a time, and their
    triples TRIPLE_CHUNK at a time with a running best, so memory stays
    bounded whatever the number of polygons. A negative radius means the
    kernel is empty.
    """
    centre = polygon_centroid(vertices)
    scale = polygon_diameter(vertices)
    a = (vertices - centre[..., None, :]) / scale[..., None, None]
    t = np.roll(a, -1, axis=-2) - a
    n = np.stack([t[..., 1], -t[..., 0]], axis=-1)
    n /= np.sqrt((n**2).sum(axis=-1))[..., None]
    b = (n * a).sum(axis=-1)
    m = vertices.shape[-2]
    n, b = n.reshape(-1, m, 2), b.reshape(-1, m)
    x, r = np.empty((len(b), 2)), np.empty(len(b))
    for start in range(0, len(b), POLYGON_CHUNK):
        block = slice(start, start + POLYGON_CHUNK)
        x[block], r[block] = _best_vertex(n[block], b[block])
    return centre + scale[..., None] * x.reshape(centre.shape), scale * r.reshape(scale.shape)


def _best_vertex(n: np.ndarray, b: np.ndarray):
    """Best candidate centres and clearances of (G, m, 2) normals and (G, m) offsets."""
    best_x = best_r = None
    for i, j, k in _edge_triples(n.shape[1]):
        # n_i . x + r = b_i for i, j, k: subtract row i from rows j and k
        d1, d2 = n[:, i] - n[:, j], n[:, i] - n[:, k]
        e1, e2 = b[:, i] - b[:, j], b[:, i] - b[:, k]
        det = d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0]
        # two edges with one outward normal meet in no vertex; any finite
        # candidate will do, as each is scored by its own clearance
        det[det == 0.0] = 1.0
        x = np.stack(
            [e1 * d2[..., 1] - e2 * d1[..., 1], d1[..., 0] * e2 - d2[..., 0] * e1], axis=-1
        ) / det[..., None]
        clearance = (b[:, None, :] - (x[:, :, None, :] * n[:, None, :, :]).sum(-1)).min(-1)
        best = clearance.argmax(axis=-1)[:, None]
        x = np.take_along_axis(x, best[..., None], axis=1)[:, 0]
        r = np.take_along_axis(clearance, best, axis=1)[:, 0]
        if best_r is None:
            best_x, best_r = x, r
        else:
            better = r > best_r
            best_x = np.where(better[:, None], x, best_x)
            best_r = np.where(better, r, best_r)
    return best_x, best_r


def star_point(vertices: np.ndarray):
    """Points from which each whole polygon is visible, with their clearance.

    Returns ``(points, clearance)``, one per polygon. The point is the
    centroid when it clears the kernel boundary by more than
    ``STAR_CLEARANCE`` times the diameter, and the centre of
    :func:`chebyshev_ball` otherwise; ``clearance`` is the distance from the
    point to the kernel boundary. A clearance below that bound means the
    kernel is empty or too thin to hold a star point.
    """
    points = polygon_centroid(vertices)
    clearance = np.asarray(kernel_clearance(vertices, points))
    off = clearance <= STAR_CLEARANCE * polygon_diameter(vertices)
    points[off], clearance[off] = chebyshev_ball(vertices[off])
    return points, clearance


def min_fan_angle(vertices: np.ndarray, center: np.ndarray):
    """Smallest angle of the fan triangles (center, v_i, v_{i+1}), in radians.

    ``center`` has shape (..., 2), one point per polygon.
    """
    p = vertices - center[..., None, :]
    q = np.roll(p, -1, axis=-2)
    e = q - p
    twice_area = np.abs(p[..., 0] * q[..., 1] - p[..., 1] * q[..., 0])
    dots = np.stack([(p * q).sum(-1), -(p * e).sum(-1), (q * e).sum(-1)])
    return np.arctan2(twice_area, dots).min(axis=(0, -1))


def segments_properly_intersect(p1, p2, q1, q2):
    """True when the open segments (p1, p2) and (q1, q2) cross.

    Endpoints have shape (..., 2); the answer has one entry per segment pair.
    """

    def orient(a, b, c):
        u = b - a
        w = c - a
        return u[..., 0] * w[..., 1] - u[..., 1] * w[..., 0]

    d1 = orient(q1, q2, p1)
    d2 = orient(q1, q2, p2)
    d3 = orient(p1, p2, q1)
    d4 = orient(p1, p2, q2)
    return ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0))


def is_simple_quad(vertices: np.ndarray):
    """True when the closed quadrilateral has no crossing opposite edges."""
    v = [vertices[..., k, :] for k in range(4)]
    return ~(
        segments_properly_intersect(v[0], v[1], v[2], v[3])
        | segments_properly_intersect(v[1], v[2], v[3], v[0])
    )
