"""Planar polygon primitives: areas, centroids, diameters, kernels, star points.

The closed-form primitives take one polygon as an (m, 2) array or a stack
of polygons with one vertex count as (..., m, 2), and return one value per
polygon.
"""

from __future__ import annotations

import numpy as np

# A star point must clear the kernel boundary by this fraction of the diameter.
STAR_CLEARANCE = 1e-12


def signed_area(vertices: np.ndarray):
    """Shoelace signed area of a polygon (positive for counterclockwise)."""
    x = vertices[..., 0]
    y = vertices[..., 1]
    cross = x * np.roll(y, -1, axis=-1) - np.roll(x, -1, axis=-1) * y
    return 0.5 * np.sum(cross, axis=-1)


def polygon_centroid(vertices: np.ndarray) -> np.ndarray:
    """Area centroid of a simple polygon with nonzero area, shape (..., 2)."""
    x = vertices[..., 0]
    y = vertices[..., 1]
    xn = np.roll(x, -1, axis=-1)
    yn = np.roll(y, -1, axis=-1)
    cross = x * yn - xn * y
    area = 0.5 * np.sum(cross, axis=-1)
    if np.any(area == 0.0):
        raise ValueError("degenerate polygon: zero area")
    cx = np.sum((x + xn) * cross, axis=-1) / (6.0 * area)
    cy = np.sum((y + yn) * cross, axis=-1) / (6.0 * area)
    return np.stack([cx, cy], axis=-1)


def polygon_diameter(vertices: np.ndarray):
    """Largest distance between two vertices (equals the diameter for polygons)."""
    diff = vertices[..., :, None, :] - vertices[..., None, :, :]
    return np.sqrt((diff**2).sum(axis=-1)).max(axis=(-2, -1))


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


def clip_half_plane(poly: np.ndarray, anchor: np.ndarray, normal: np.ndarray) -> np.ndarray:
    """Clip a convex polygon to the half-plane ``normal . (x - anchor) <= 0``."""
    if len(poly) == 0:
        return poly
    d = (poly - anchor[None, :]) @ normal
    out = []
    m = len(poly)
    for i in range(m):
        j = (i + 1) % m
        di, dj = d[i], d[j]
        if di <= 0.0:
            out.append(poly[i])
        if (di < 0.0 < dj) or (dj < 0.0 < di):
            t = di / (di - dj)
            out.append(poly[i] + t * (poly[j] - poly[i]))
    return np.array(out) if out else np.empty((0, 2))


def polygon_kernel(vertices: np.ndarray) -> np.ndarray:
    """Kernel of a simple polygon via successive half-plane clipping.

    Returns the (convex) kernel polygon, possibly empty. Clipping starts from
    the bounding box so the result is valid for non-convex input.
    """
    lo = vertices.min(axis=0)
    hi = vertices.max(axis=0)
    pad = 0.5 * max(hi[0] - lo[0], hi[1] - lo[1], 1e-300)
    box = np.array(
        [
            [lo[0] - pad, lo[1] - pad],
            [hi[0] + pad, lo[1] - pad],
            [hi[0] + pad, hi[1] + pad],
            [lo[0] - pad, hi[1] + pad],
        ]
    )
    poly = box
    m = len(vertices)
    for i in range(m):
        a = vertices[i]
        b = vertices[(i + 1) % m]
        t = b - a
        outward = np.array([t[1], -t[0]])  # interior is left of a->b
        poly = clip_half_plane(poly, a, outward)
        if len(poly) == 0:
            break
    return poly


def kernel_chebyshev(vertices: np.ndarray):
    """Deepest kernel point: center and radius of the largest inscribed ball.

    Solves the small linear program ``max r`` subject to the point staying at
    distance ``r`` inside every edge half-plane. Returns ``(center, radius)``;
    radius is ``-inf`` when the kernel is empty.
    """
    from scipy.optimize import linprog

    a = vertices
    b = np.roll(vertices, -1, axis=0)
    t = b - a
    lengths = np.sqrt((t**2).sum(axis=1))
    n = np.column_stack([t[:, 1], -t[:, 0]]) / lengths[:, None]  # unit outward
    a_ub = np.column_stack([n, np.ones(len(a))])
    b_ub = (n * a).sum(axis=1)
    res = linprog(
        c=[0.0, 0.0, -1.0],
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=[(None, None), (None, None), (None, None)],
        method="highs",
    )
    if not res.success:
        return np.array([np.nan, np.nan]), -np.inf
    return res.x[:2].copy(), float(res.x[2])


def star_point(vertices: np.ndarray) -> np.ndarray:
    """Interior point from which the whole polygon is visible.

    The centroid is used whenever it lies in the polygon kernel; otherwise the
    deepest kernel point (Chebyshev center of the kernel) is returned.
    """
    c = polygon_centroid(vertices)
    tol = STAR_CLEARANCE * polygon_diameter(vertices)
    if kernel_clearance(vertices, c) > tol:
        return c
    center, radius = kernel_chebyshev(vertices)
    if radius <= tol:
        raise ValueError("polygon has an empty kernel: no valid star point")
    return center


def triangle_min_angle(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> float:
    """Smallest interior angle of the triangle (a, b, c), in radians."""
    sides = [b - a, c - b, a - c]
    angles = []
    for i in range(3):
        u = -sides[i - 1]
        v = sides[i]
        cosang = float(u @ v) / (np.linalg.norm(u) * np.linalg.norm(v))
        angles.append(np.arccos(np.clip(cosang, -1.0, 1.0)))
    return float(min(angles))


def min_fan_angle(vertices: np.ndarray, center: np.ndarray) -> float:
    """Minimum angle over the fan triangles (center, v_i, v_{i+1})."""
    m = len(vertices)
    return min(
        triangle_min_angle(center, vertices[i], vertices[(i + 1) % m]) for i in range(m)
    )


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
