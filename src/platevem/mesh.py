"""Polygonal mesh container, topology derivation, regularity report, JSON i/o."""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, fields
from itertools import chain

import numpy as np

from . import geometry


class MeshError(Exception):
    """Invalid mesh data or topology."""


class MeshIOError(Exception):
    """Malformed or inconsistent mesh file."""


class CellRows(Sequence):
    """Integer rows of varying length, one per cell, stored in one flat array.

    Row c is ``flat[offsets[c]:offsets[c + 1]]``; ``rows[c]`` returns it as a
    view. One flat array in place of a list of small arrays keeps a mesh's
    per-cell tables compact, and the tables of one mesh share ``offsets``.
    """

    def __init__(self, flat: np.ndarray, offsets: np.ndarray):
        self.flat = flat
        self.offsets = offsets

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, c: int) -> np.ndarray:
        c = range(len(self))[c]
        return self.flat[self.offsets[c] : self.offsets[c + 1]]

    def __iter__(self):
        return iter(np.split(self.flat, self.offsets[1:-1]))

    def stack(self, cells: np.ndarray) -> np.ndarray:
        """The rows of ``cells``, all of one length m, as a (len(cells), m) array."""
        m = self.offsets[cells[0] + 1] - self.offsets[cells[0]]
        return self.flat[self.offsets[cells][:, None] + np.arange(m)]


@dataclass(frozen=True)
class CellGroup:
    """Geometry of cells sharing one vertex count m, stacked along axis 0.

    Row k of every array belongs to mesh cell ``index[k]``.
    ``edge_signs[k, i]`` is +1 when that cell traverses its local edge i in
    the global edge orientation (lower to higher vertex id) and -1
    otherwise; the cell's outward normal on that edge is
    ``edge_signs[k, i] * normals[k, i]``.
    """

    index: np.ndarray  # (G,) mesh cell ids
    vertices: np.ndarray  # (G, m, 2), counterclockwise
    edge_signs: np.ndarray  # (G, m)
    edge_lengths: np.ndarray  # (G, m)
    normals: np.ndarray  # (G, m, 2), global-orientation normals
    tangents: np.ndarray  # (G, m, 2), global-orientation tangents
    areas: np.ndarray  # (G,)
    centroids: np.ndarray  # (G, 2)
    diameters: np.ndarray  # (G,)
    stars: np.ndarray  # (G, 2)

    @property
    def n_cells(self) -> int:
        return len(self.index)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[1]

    def rows(self, start: int, stop: int) -> CellGroup:
        """Cells ``start`` to ``stop - 1`` of the group, as views into its stacks."""
        return CellGroup(**{f.name: getattr(self, f.name)[start:stop] for f in fields(self)})


@dataclass
class PolygonMesh:
    """Polygonal decomposition of a simply connected planar domain.

    Treated as immutable once derived.
    """

    vertices: np.ndarray  # (n_vertices, 2)
    cells: CellRows  # vertex ids per cell, counterclockwise
    edge_vertices: np.ndarray  # (n_edges, 2), lower id first
    edge_cells: np.ndarray  # (n_edges, 2), -1 when absent
    cell_edges: CellRows  # per-cell edge ids aligned with local edges
    areas: np.ndarray
    centroids: np.ndarray
    diameters: np.ndarray
    stars: np.ndarray
    clearances: np.ndarray  # star point to kernel boundary (ball radius off the centroid)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def n_edges(self) -> int:
        return len(self.edge_vertices)

    @property
    def edge_is_boundary(self) -> np.ndarray:
        return self.edge_cells[:, 1] < 0

    @property
    def boundary_vertices(self) -> np.ndarray:
        """Bool mask of the vertices that end a boundary edge."""
        mask = np.zeros(self.n_vertices, dtype=bool)
        mask[self.edge_vertices[self.edge_is_boundary].ravel()] = True
        return mask

    @property
    def h(self) -> float:
        return float(self.diameters.max())

    def cell_group(self, cells) -> CellGroup:
        """Stacked geometry of the given cells, which share one vertex count."""
        cells = np.asarray(cells, dtype=int)
        ids = self.cells.stack(cells)
        eids = self.cell_edges.stack(cells)
        ends = self.vertices[self.edge_vertices[eids]]  # (G, m, 2, 2)
        vecs = ends[:, :, 1] - ends[:, :, 0]
        lengths = np.sqrt((vecs**2).sum(axis=-1))
        tangents = vecs / lengths[..., None]
        normals = np.stack([tangents[..., 1], -tangents[..., 0]], axis=-1)
        return CellGroup(
            index=cells,
            vertices=self.vertices[ids],
            edge_signs=np.where(ids < np.roll(ids, -1, axis=1), 1, -1),
            edge_lengths=lengths,
            normals=normals,
            tangents=tangents,
            areas=self.areas[cells],
            centroids=self.centroids[cells],
            diameters=self.diameters[cells],
            stars=self.stars[cells],
        )

    def group_index(self) -> list[np.ndarray]:
        """Cell ids of each vertex count, in increasing count order."""
        counts = self.cells.lengths
        return [np.flatnonzero(counts == m) for m in np.unique(counts)]

    def cell_groups(self) -> list[CellGroup]:
        """One group per vertex count, in increasing count order."""
        return [self.cell_group(cells) for cells in self.group_index()]


def derive_topology(vertices: np.ndarray, cells) -> PolygonMesh:
    """Build the full mesh data structure from vertices and cell vertex lists.

    Edges are numbered in order of first traversal (cell by cell, local edge
    by local edge); ``edge_cells`` lists the traversing cells in the same
    order. Geometry is computed once per vertex-count stack, star points
    by :func:`geometry.star_point`.

    Parameters
    ----------
    vertices : array, shape (n, 2)
    cells : sequence of index sequences
        Each cell lists its vertices counterclockwise.

    Raises
    ------
    MeshError
        On non-numeric vertices or cells, invalid indices (not integers, or
        out of range), repeated vertices in a cell, a zero-length
        edge, non-positive cell area, non-manifold edges (more than two
        incident cells), inconsistently oriented neighbors, a violated Euler
        identity, or a cell with an empty kernel. Each check reports the
        first offender.
    """
    try:
        vertices = np.asarray(vertices, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise MeshError(f"vertices must be an (n, 2) array: {exc}") from exc
    if vertices.ndim != 2 or vertices.shape[1] != 2:
        raise MeshError("vertices must be an (n, 2) array")
    if not np.all(np.isfinite(vertices)):
        raise MeshError("vertex coordinates must be finite")
    n_vert = len(vertices)
    # Indices are read as float64, exact below 2**53, so that a fraction or a
    # huge index is reported by _check_cell_lists rather than truncated.
    try:
        lengths = np.fromiter(map(len, cells), dtype=int)
        flat = np.fromiter(chain.from_iterable(cells), dtype=float, count=lengths.sum())
    except (TypeError, ValueError, OverflowError) as exc:
        raise MeshError(f"cells must be sequences of vertex indices: {exc}") from exc
    n_cells = len(lengths)
    if not n_cells:
        raise MeshError("mesh has no cells")
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    cell_of = np.repeat(np.arange(n_cells), lengths)
    _check_cell_lists(flat, cell_of, lengths, n_vert)
    flat = flat.astype(int)

    # Half-edge h runs from flat[h] to flat[nxt[h]], the next vertex of its cell.
    nxt = np.arange(1, len(flat) + 1)
    nxt[offsets[1:] - 1] = offsets[:-1]
    zero = np.flatnonzero((vertices[flat] == vertices[flat[nxt]]).all(axis=1))
    if len(zero):
        raise MeshError(f"cell {cell_of[zero[0]]} has a zero-length edge")
    lo = np.minimum(flat, flat[nxt])
    hi = np.maximum(flat, flat[nxt])
    signs = np.where(flat < flat[nxt], 1, -1)

    # Group half-edges by edge; the stable sort keeps traversal order inside
    # a group, so its first entry is the edge's first traversal.
    keys = lo * n_vert + hi
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    start = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
    count = np.diff(np.append(start, len(keys)))
    if count.max() > 2:
        # the first traversal that is some edge's third
        third = np.arange(len(keys)) - np.repeat(start, count) >= 2
        h = order[third].min()
        edge = (int(lo[h]), int(hi[h]))
        raise MeshError(f"edge {edge} is non-manifold (3+ incident cells)")
    by_first = np.argsort(order[start])
    edge_id = np.empty(len(start), dtype=int)
    edge_id[by_first] = np.arange(len(start))
    cell_edge_flat = np.empty(len(flat), dtype=int)
    cell_edge_flat[order] = np.repeat(edge_id, count)

    start = start[by_first]
    first = order[start]
    twice = np.flatnonzero(count[by_first] == 2)
    second = order[start[twice] + 1]
    edge_vertices = np.column_stack([lo[first], hi[first]])
    edge_cells = np.full((len(first), 2), -1, dtype=int)
    edge_cells[:, 0] = cell_of[first]
    edge_cells[twice, 1] = cell_of[second]
    same = twice[signs[first[twice]] == signs[second]]
    if len(same):
        edge = tuple(int(v) for v in edge_vertices[same[0]])
        raise MeshError(
            f"edge {edge} traversed twice in the same direction: "
            "inconsistent cell orientation"
        )

    n_edges = len(edge_vertices)
    if n_vert - n_edges + n_cells != 1:
        raise MeshError(
            "Euler identity V - E + F = 1 violated: mesh is not a simply "
            "connected decomposition without holes"
        )

    cell_rows = CellRows(flat, offsets)
    areas, centroids, diameters, stars, clearances = _cell_geometry(vertices, cell_rows)
    return PolygonMesh(
        vertices=vertices,
        cells=cell_rows,
        edge_vertices=edge_vertices,
        edge_cells=edge_cells,
        cell_edges=CellRows(cell_edge_flat, offsets),
        areas=areas,
        centroids=centroids,
        diameters=diameters,
        stars=stars,
        clearances=clearances,
    )


def _check_cell_lists(flat, cell_of, lengths, n_vert) -> None:
    """Raise for the first cell that is too short, has an index that is not
    an integer, repeats a vertex or names one out of range; within a cell the
    checks run in that order. ``flat`` holds the indices as floats."""
    n_cells = len(lengths)
    order = np.lexsort((flat, cell_of))
    owner, ids = cell_of[order], flat[order]
    repeated = owner[1:][(owner[1:] == owner[:-1]) & (ids[1:] == ids[:-1])]
    out_of_range = cell_of[(flat < 0) | (flat >= n_vert)]
    fractional = cell_of[~(flat == np.floor(flat))]  # NaN included
    checks = (
        (lengths < 3, "has fewer than 3 vertices"),
        (
            np.bincount(fractional, minlength=n_cells) > 0,
            "has a vertex index that is not an integer",
        ),
        (np.bincount(repeated, minlength=n_cells) > 0, "repeats a vertex"),
        (
            np.bincount(out_of_range, minlength=n_cells) > 0,
            "references a vertex out of range",
        ),
    )
    failing = np.logical_or.reduce([mask for mask, _ in checks])
    if failing.any():
        c = int(np.argmax(failing))
        problem = next(text for mask, text in checks if mask[c])
        raise MeshError(f"cell {c} {problem}")


def _cell_geometry(vertices: np.ndarray, cells: CellRows):
    """Areas, centroids, diameters, star points and their clearances, one
    stack per vertex count.

    Every area is checked before any centroid divides by it, and every star
    point before the first cell without one is reported.
    """
    lengths = cells.lengths
    groups = [np.flatnonzero(lengths == m) for m in np.unique(lengths)]
    stacks = [(idx, vertices[cells.stack(idx)]) for idx in groups]
    areas = np.empty(len(cells))
    for idx, verts in stacks:
        areas[idx] = geometry.signed_area(verts)
    bad = np.flatnonzero(areas <= 0.0)
    if len(bad):
        c = bad[0]
        raise MeshError(f"cell {c} has non-positive signed area {areas[c]}")
    centroids = np.empty((len(cells), 2))
    diameters = np.empty(len(cells))
    clearance = np.empty(len(cells))
    stars = np.empty((len(cells), 2))
    for idx, verts in stacks:
        centroids[idx] = geometry.polygon_centroid(verts)
        diameters[idx] = geometry.polygon_diameter(verts)
        stars[idx], clearance[idx] = geometry.star_point(verts)
    bad = np.flatnonzero(clearance <= geometry.STAR_CLEARANCE * diameters)
    if len(bad):
        raise MeshError(f"cell {bad[0]}: polygon has an empty kernel: no valid star point")
    return areas, centroids, diameters, stars, clearance


@dataclass(frozen=True)
class RegularityReport:
    """Shape-regularity measures of a mesh.

    ``min_star_radius_ratio`` is the smallest, over cells, of the radius of
    the largest ball from which the whole cell is visible, divided by the
    cell diameter. ``min_edge_to_diameter_ratio`` is the smallest edge length
    relative to the diameters of its incident cells.
    ``min_subtriangle_quality`` is the smallest angle (radians) in the fan
    sub-triangulations from the cell star points.
    """

    min_star_radius_ratio: float
    min_edge_to_diameter_ratio: float
    min_subtriangle_quality: float


def validate_regularity(mesh: PolygonMesh) -> RegularityReport:
    """Compute the shape-regularity report of a mesh (never raises).

    One pass per vertex-count group. A star point off its cell's centroid is
    the centre of the cell's Chebyshev ball, and its clearance is the ball's
    radius, so :func:`geometry.chebyshev_ball` solves only the cells whose
    star point is the centroid, in chunks.
    """
    star_ratio = edge_ratio = angle = np.inf
    for group in mesh.cell_groups():
        radii = mesh.clearances[group.index]
        at_centroid = (group.stars == group.centroids).all(axis=1)
        radii[at_centroid] = geometry.chebyshev_ball(group.vertices[at_centroid])[1]
        star_ratio = min(star_ratio, (np.maximum(radii, 0.0) / group.diameters).min())
        edge_ratio = min(edge_ratio, (group.edge_lengths / group.diameters[:, None]).min())
        angle = min(angle, geometry.min_fan_angle(group.vertices, group.stars).min())
    return RegularityReport(float(star_ratio), float(edge_ratio), float(angle))


def write_mesh(mesh: PolygonMesh, path) -> None:
    """Serialize vertices and cells as JSON with 17 significant digits."""
    lines = ['{"vertices": [']
    vrows = [
        f"[{x:.17g}, {y:.17g}]" for x, y in mesh.vertices
    ]
    lines.append(",\n".join(vrows))
    lines.append('], "cells": [')
    crows = ["[" + ", ".join(str(int(v)) for v in ids) + "]" for ids in mesh.cells]
    lines.append(",\n".join(crows))
    lines.append("]}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _lists_of(value, types: tuple) -> bool:
    """Whether ``value`` is a list of lists whose entries have exactly one of
    ``types`` (so a bool is not an int)."""
    return isinstance(value, list) and all(
        isinstance(row, list) and all(type(x) in types for x in row) for row in value
    )


def read_mesh(path) -> PolygonMesh:
    """Read a mesh file written by :func:`write_mesh` and rebuild topology."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # JSON and UTF-8 decoding errors
        raise MeshIOError(f"cannot parse mesh file {path}: {exc}") from exc
    if not isinstance(data, dict) or "vertices" not in data or "cells" not in data:
        raise MeshIOError("mesh file must contain 'vertices' and 'cells'")
    vertices, cells = data["vertices"], data["cells"]
    # JSON numbers only, and integer indices: a bool is an int to Python,
    # and NumPy would read true or "1" as 1.0. derive_topology makes every
    # structural check (shape, index range, no cells).
    if not _lists_of(vertices, (int, float)):
        raise MeshIOError("vertices must be lists of numeric coordinates")
    if not _lists_of(cells, (int,)):
        raise MeshIOError("cells must be lists of integer vertex indices")
    try:
        return derive_topology(vertices, cells)
    except MeshError as exc:
        raise MeshIOError(f"inconsistent mesh file: {exc}") from exc
