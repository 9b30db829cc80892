"""Polygonal mesh container, topology derivation, regularity report, JSON i/o."""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import geometry


class MeshError(Exception):
    """Invalid mesh data or topology."""


class MeshIOError(Exception):
    """Malformed or inconsistent mesh file."""


@dataclass(frozen=True)
class Edge:
    """Oriented mesh edge running from the lower to the higher vertex index."""

    endpoint_ids: tuple[int, int]
    length: float
    normal: np.ndarray
    tangent: np.ndarray
    adjacent_cells: tuple[int, ...]
    is_boundary: bool


@dataclass(frozen=True)
class CellFrame:
    """Per-cell geometry bundle used by quadrature and element kernels.

    ``edge_signs[i]`` is +1 when the cell traverses local edge i in the global
    edge orientation (lower to higher vertex id) and -1 otherwise; the cell's
    outward normal on that edge is ``edge_signs[i] * normals[i]``.
    """

    index: int
    vertex_ids: np.ndarray
    vertices: np.ndarray  # (m, 2), counterclockwise
    edge_ids: np.ndarray  # (m,), local edge i joins local vertices i, i+1
    edge_signs: np.ndarray  # (m,), +-1 vs global orientation
    edge_lengths: np.ndarray
    normals: np.ndarray  # (m, 2), global-orientation normals
    tangents: np.ndarray  # (m, 2), global-orientation tangents
    area: float
    centroid: np.ndarray
    diameter: float
    star: np.ndarray

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_ids)

    def outward_normal(self, i: int) -> np.ndarray:
        return self.edge_signs[i] * self.normals[i]

    def traversal_tangent(self, i: int) -> np.ndarray:
        return self.edge_signs[i] * self.tangents[i]

    def edge_endpoints_global(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Edge endpoints ordered by the global (lower id first) orientation."""
        a = self.vertices[i]
        b = self.vertices[(i + 1) % self.n_vertices]
        return (a, b) if self.edge_signs[i] > 0 else (b, a)


class CellRows(Sequence):
    """Integer rows of varying length, one per cell, stored in one flat array.

    ``rows[c]`` is row c as a view. One flat array in place of a list of
    small arrays keeps a mesh's per-cell tables compact.
    """

    def __init__(self, rows):
        self.lengths = np.array([len(r) for r in rows], dtype=int)
        self.offsets = np.concatenate([[0], np.cumsum(self.lengths)])
        self.flat = np.concatenate([np.asarray(r, dtype=int) for r in rows])

    def __len__(self) -> int:
        return len(self.lengths)

    def __getitem__(self, c: int) -> np.ndarray:
        c = range(len(self))[c]
        return self.flat[self.offsets[c] : self.offsets[c + 1]]

    def __iter__(self):
        return iter(np.split(self.flat, self.offsets[1:-1]))

    def stack(self, cells: np.ndarray) -> np.ndarray:
        """The rows of ``cells``, all of one length m, as a (len(cells), m) array."""
        m = self.lengths[cells[0]]
        return self.flat[self.offsets[cells][:, None] + np.arange(m)]


@dataclass(frozen=True)
class CellGroup:
    """Geometry of cells sharing one vertex count m, stacked along axis 0.

    Each array holds the corresponding :class:`CellFrame` field of every
    cell of the group; ``frame(k)`` returns the frame of the k-th cell as
    views into these stacks.
    """

    index: np.ndarray  # (G,) mesh cell ids
    vertex_ids: np.ndarray  # (G, m)
    vertices: np.ndarray  # (G, m, 2), counterclockwise
    edge_ids: np.ndarray  # (G, m)
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
        return self.vertex_ids.shape[1]

    def frame(self, k: int) -> CellFrame:
        return CellFrame(
            index=int(self.index[k]),
            vertex_ids=self.vertex_ids[k],
            vertices=self.vertices[k],
            edge_ids=self.edge_ids[k],
            edge_signs=self.edge_signs[k],
            edge_lengths=self.edge_lengths[k],
            normals=self.normals[k],
            tangents=self.tangents[k],
            area=float(self.areas[k]),
            centroid=self.centroids[k],
            diameter=float(self.diameters[k]),
            star=self.stars[k],
        )


@dataclass
class PolygonMesh:
    """Polygonal decomposition of a simply connected planar domain.

    Treated as immutable once derived; a finished mesh is safe to share
    read-only across parallel per-cell computations.
    """

    vertices: np.ndarray  # (n_vertices, 2)
    cells: CellRows  # vertex ids per cell, counterclockwise
    edge_vertices: np.ndarray  # (n_edges, 2), lower id first
    edge_cells: np.ndarray  # (n_edges, 2), -1 when absent
    cell_edges: CellRows  # per-cell edge ids aligned with local edges
    cell_edge_signs: CellRows  # per-cell +-1 traversal signs
    areas: np.ndarray
    centroids: np.ndarray
    diameters: np.ndarray
    stars: np.ndarray
    boundary_vertices: np.ndarray = field(repr=False)  # bool mask

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
    def h(self) -> float:
        return float(self.diameters.max())

    def edge(self, i: int) -> Edge:
        v0, v1 = self.edge_vertices[i]
        a = self.vertices[v0]
        b = self.vertices[v1]
        t = b - a
        length = float(np.linalg.norm(t))
        t = t / length
        n = np.array([t[1], -t[0]])
        cells = tuple(int(c) for c in self.edge_cells[i] if c >= 0)
        return Edge((int(v0), int(v1)), length, n, t, cells, len(cells) == 1)

    def frame(self, i: int) -> CellFrame:
        return self.cell_group([i]).frame(0)

    def cell_group(self, cells) -> CellGroup:
        """Stacked geometry of the given cells, which share one vertex count."""
        cells = np.asarray(cells, dtype=int)
        ids = self.cells.stack(cells)
        eids = self.cell_edges.stack(cells)
        signs = self.cell_edge_signs.stack(cells)
        ends = self.vertices[self.edge_vertices[eids]]  # (G, m, 2, 2)
        vecs = ends[:, :, 1] - ends[:, :, 0]
        lengths = np.sqrt((vecs**2).sum(axis=-1))
        tangents = vecs / lengths[..., None]
        normals = np.stack([tangents[..., 1], -tangents[..., 0]], axis=-1)
        return CellGroup(
            index=cells,
            vertex_ids=ids,
            vertices=self.vertices[ids],
            edge_ids=eids,
            edge_signs=signs,
            edge_lengths=lengths,
            normals=normals,
            tangents=tangents,
            areas=self.areas[cells],
            centroids=self.centroids[cells],
            diameters=self.diameters[cells],
            stars=self.stars[cells],
        )

    def cell_groups(self) -> list[CellGroup]:
        """One group per vertex count, in increasing count order."""
        counts = self.cells.lengths
        return [self.cell_group(np.flatnonzero(counts == m)) for m in np.unique(counts)]

    def frames(self):
        return [self.frame(i) for i in range(self.n_cells)]


def derive_topology(vertices: np.ndarray, cells) -> PolygonMesh:
    """Build the full mesh data structure from vertices and cell vertex lists.

    Parameters
    ----------
    vertices : array, shape (n, 2)
    cells : sequence of index sequences
        Each cell lists its vertices counterclockwise.

    Raises
    ------
    MeshError
        On invalid indices, repeated vertices in a cell, non-positive cell
        area, non-manifold edges (more than two incident cells),
        inconsistently oriented neighbors, or a violated Euler identity.
    """
    vertices = np.asarray(vertices, dtype=float)
    if vertices.ndim != 2 or vertices.shape[1] != 2:
        raise MeshError("vertices must be an (n, 2) array")
    if not np.all(np.isfinite(vertices)):
        raise MeshError("vertex coordinates must be finite")
    n_vert = len(vertices)
    cell_arrays = []
    for c, cell in enumerate(cells):
        ids = np.asarray(cell, dtype=int)
        if len(ids) < 3:
            raise MeshError(f"cell {c} has fewer than 3 vertices")
        if len(set(ids.tolist())) != len(ids):
            raise MeshError(f"cell {c} repeats a vertex")
        if ids.min() < 0 or ids.max() >= n_vert:
            raise MeshError(f"cell {c} references a vertex out of range")
        cell_arrays.append(ids)
    if not cell_arrays:
        raise MeshError("mesh has no cells")

    edge_index: dict[tuple[int, int], int] = {}
    edge_list: list[tuple[int, int]] = []
    edge_cells: list[list[int]] = []
    edge_dirs: list[list[int]] = []
    cell_edges = []
    cell_edge_signs = []
    for c, ids in enumerate(cell_arrays):
        m = len(ids)
        eids = np.empty(m, dtype=int)
        signs = np.empty(m, dtype=int)
        for k in range(m):
            a = int(ids[k])
            b = int(ids[(k + 1) % m])
            key = (a, b) if a < b else (b, a)
            sign = 1 if a < b else -1
            eid = edge_index.get(key)
            if eid is None:
                eid = len(edge_list)
                edge_index[key] = eid
                edge_list.append(key)
                edge_cells.append([])
                edge_dirs.append([])
            if len(edge_cells[eid]) >= 2:
                raise MeshError(f"edge {key} is non-manifold (3+ incident cells)")
            edge_cells[eid].append(c)
            edge_dirs[eid].append(sign)
            eids[k] = eid
            signs[k] = sign
        cell_edges.append(eids)
        cell_edge_signs.append(signs)

    for eid, dirs in enumerate(edge_dirs):
        if len(dirs) == 2 and dirs[0] == dirs[1]:
            raise MeshError(
                f"edge {edge_list[eid]} traversed twice in the same direction: "
                "inconsistent cell orientation"
            )

    n_edges = len(edge_list)
    if n_vert - n_edges + len(cell_arrays) != 1:
        raise MeshError(
            "Euler identity V - E + F = 1 violated: mesh is not a simply "
            "connected decomposition without holes"
        )

    areas = np.empty(len(cell_arrays))
    centroids = np.empty((len(cell_arrays), 2))
    diameters = np.empty(len(cell_arrays))
    stars = np.empty((len(cell_arrays), 2))
    for c, ids in enumerate(cell_arrays):
        verts = vertices[ids]
        area = geometry.signed_area(verts)
        if area <= 0.0:
            raise MeshError(f"cell {c} has non-positive signed area {area}")
        areas[c] = area
        centroids[c] = geometry.polygon_centroid(verts)
        diameters[c] = geometry.polygon_diameter(verts)
        try:
            stars[c] = geometry.star_point(verts)
        except ValueError as exc:
            raise MeshError(f"cell {c}: {exc}") from exc

    edge_vertices = np.array(edge_list, dtype=int)
    edge_cells_arr = np.full((n_edges, 2), -1, dtype=int)
    for eid, owners in enumerate(edge_cells):
        for k, c in enumerate(owners):
            edge_cells_arr[eid, k] = c
    boundary_vertices = np.zeros(n_vert, dtype=bool)
    boundary_edge_mask = edge_cells_arr[:, 1] < 0
    boundary_vertices[edge_vertices[boundary_edge_mask].ravel()] = True

    return PolygonMesh(
        vertices=vertices,
        cells=CellRows(cell_arrays),
        edge_vertices=edge_vertices,
        edge_cells=edge_cells_arr,
        cell_edges=CellRows(cell_edges),
        cell_edge_signs=CellRows(cell_edge_signs),
        areas=areas,
        centroids=centroids,
        diameters=diameters,
        stars=stars,
        boundary_vertices=boundary_vertices,
    )


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

    def passes(self, rho0: float, angle_floor: float = 0.1) -> bool:
        return (
            self.min_star_radius_ratio >= rho0
            and self.min_edge_to_diameter_ratio >= rho0
            and self.min_subtriangle_quality >= angle_floor
        )


def validate_regularity(mesh: PolygonMesh) -> RegularityReport:
    """Compute the shape-regularity report of a mesh (never raises)."""
    star_ratio = np.inf
    angle = np.inf
    for c in range(mesh.n_cells):
        verts = mesh.vertices[mesh.cells[c]]
        kernel = geometry.polygon_kernel(verts)
        if len(kernel) < 3:
            star_ratio = 0.0
        else:
            _, radius = geometry.kernel_chebyshev(verts)
            star_ratio = min(star_ratio, max(radius, 0.0) / mesh.diameters[c])
        angle = min(angle, geometry.min_fan_angle(verts, mesh.stars[c]))
    edge_ratio = np.inf
    for eid in range(mesh.n_edges):
        v0, v1 = mesh.edge_vertices[eid]
        length = float(np.linalg.norm(mesh.vertices[v1] - mesh.vertices[v0]))
        for c in mesh.edge_cells[eid]:
            if c >= 0:
                edge_ratio = min(edge_ratio, length / mesh.diameters[c])
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


def read_mesh(path) -> PolygonMesh:
    """Read a mesh file written by :func:`write_mesh` and rebuild topology."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise MeshIOError(f"cannot parse mesh file {path}: {exc}") from exc
    if not isinstance(data, dict) or "vertices" not in data or "cells" not in data:
        raise MeshIOError("mesh file must contain 'vertices' and 'cells'")
    if not data["cells"]:
        raise MeshIOError("mesh file has an empty cell list")
    try:
        vertices = np.array(data["vertices"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise MeshIOError(f"bad vertex data: {exc}") from exc
    try:
        return derive_topology(vertices, data["cells"])
    except MeshError as exc:
        raise MeshIOError(f"inconsistent mesh file: {exc}") from exc
