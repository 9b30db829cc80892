"""Global numbering, boundary conditions, sparse assembly, and the SPD solve."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import multifrontal
from .local import (
    KernelGroup,
    build_local_kernels,
    dof_layout,
    edge_moments,
    interior_moments,
    local_load,
)
from .mesh import PolygonMesh
from .multifrontal import Cholesky, SolverError
from .plate import MaterialParams


class AssemblyError(Exception):
    """Failure while building the global system."""


@dataclass
class GlobalDofMap:
    """Global numbering of the unknowns of a mesh at a given order.

    Vertex unknowns come first (shared across incident cells), then the
    normal-derivative edge moments grouped by edge, then the trace edge
    moments, then the per-cell interior moments. Edge unknowns address the
    global edge convention, so the two cells sharing an edge scatter into
    identical columns without sign bookkeeping; each cell's own outward
    normal enters its local kernels through the edge orientation signs.
    """

    mesh: PolygonMesh
    order: int
    n_total: int = field(init=False)
    offsets: tuple = field(init=False)

    def __post_init__(self):
        if self.order < 2:
            raise AssemblyError("order must be at least 2")
        layout = dof_layout(3, self.order)
        mesh = self.mesh
        self._n_en = layout.n_edge_normal
        self._n_ev = layout.n_edge_value
        self._n_cell = layout.n_cell
        o_vertex = 0
        o_en = mesh.n_vertices
        o_ev = o_en + mesh.n_edges * self._n_en
        o_cell = o_ev + mesh.n_edges * self._n_ev
        self.offsets = (o_vertex, o_en, o_ev, o_cell)
        self.n_total = o_cell + mesh.n_cells * self._n_cell

    def group_dofs(self, cells) -> np.ndarray:
        """Global indices of the unknowns of cells sharing one vertex count.

        Returns a (len(cells), n_local) array, each row in local layout order.
        """
        cells = np.asarray(cells, dtype=int)
        normal, value = self.edge_dofs(self.mesh.cell_edges.stack(cells))
        interior = self.offsets[3] + cells[:, None] * self._n_cell + np.arange(self._n_cell)
        parts = [self.mesh.cells.stack(cells), normal, value, interior]
        return np.concatenate([p.reshape(len(cells), -1) for p in parts], axis=1)

    def edge_dofs(self, edges) -> tuple[np.ndarray, np.ndarray]:
        """Global indices of the normal and the trace moments of edges.

        Returns two arrays of shape ``edges.shape + (n,)``, n the number of
        moments of each kind per edge (none of the trace kind at order 2).
        """
        edges = np.asarray(edges, dtype=int)[..., None]
        _, o_en, o_ev, _ = self.offsets
        return (
            o_en + edges * self._n_en + np.arange(self._n_en),
            o_ev + edges * self._n_ev + np.arange(self._n_ev),
        )

    def unknown_entities(self) -> np.ndarray:
        """The mesh entity of every unknown.

        Vertex v is entity v, edge e is ``n_vertices + e`` (both kinds of
        edge moment) and cell c is ``n_vertices + n_edges + c``.
        """
        mesh = self.mesh
        edges = mesh.n_vertices + np.arange(mesh.n_edges)
        return np.concatenate(
            [
                np.arange(mesh.n_vertices),
                np.repeat(edges, self._n_en),
                np.repeat(edges, self._n_ev),
                np.repeat(mesh.n_vertices + mesh.n_edges + np.arange(mesh.n_cells), self._n_cell),
            ]
        )

    @property
    def boundary_mask(self) -> np.ndarray:
        """True for unknowns constrained by boundary conditions.

        Boundary vertices and every edge moment (both kinds) of boundary
        edges are constrained; interior moments never are.
        """
        mesh = self.mesh
        mask = np.zeros(self.n_total, dtype=bool)
        mask[: mesh.n_vertices] = mesh.boundary_vertices
        for block in self.edge_dofs(np.flatnonzero(mesh.edge_is_boundary)):
            mask[block] = True
        return mask


def global_dof_map(mesh: PolygonMesh, order: int) -> GlobalDofMap:
    """Global numbering for a mesh at the given order."""
    return GlobalDofMap(mesh, order)


@dataclass(frozen=True)
class BoundarySpec:
    """Boundary data: homogeneous clamped, or strong values from callbacks."""

    value: object = None  # callable u(x, y) or None for clamped
    gradient: object = None  # callable -> (du/dx, du/dy)

    @classmethod
    def clamped(cls) -> "BoundarySpec":
        return cls()

    @classmethod
    def dirichlet(cls, value, gradient) -> "BoundarySpec":
        if value is None or gradient is None:
            raise AssemblyError("strong boundary data needs value and gradient callbacks")
        return cls(value, gradient)

    @property
    def is_clamped(self) -> bool:
        return self.value is None


def assemble_stiffness(
    cells: list[np.ndarray], stiffness: list[np.ndarray], dofmap: GlobalDofMap
) -> sp.csr_matrix:
    """Scatter stacks of cell blocks into the full matrix.

    ``stiffness[k]`` holds the blocks of the cells ``cells[k]``, which share
    one vertex count, in local layout order. The rows of every cell's
    block, one per local unknown and placed in the cell's global columns,
    form a matrix L, filled one stack at a time with int32 indices. Row i
    of the matrix sums the rows of L whose local unknown is numbered i: one
    stable row gather lines them up in cell order, and summing duplicates
    adds them. Entries that cancel stay stored: the pattern is the union of
    the cells' patterns, whatever the values. Cells meet along single edges,
    so two distinct unknowns share at most two cells, and every
    off-diagonal entry sums at most two terms.
    """
    shape = (dofmap.n_total, dofmap.n_total)
    unknowns = [dofmap.group_dofs(index) for index in cells]
    row_unknown = np.concatenate([idx.ravel() for idx in unknowns])
    n_entries = sum(idx.size * idx.shape[1] for idx in unknowns)
    indptr = np.zeros(len(row_unknown) + 1, dtype=np.int32)
    columns = np.empty(n_entries, dtype=np.int32)
    row = entry = 0
    for idx in unknowns:
        g, n = idx.shape
        indptr[row + 1 : row + g * n + 1] = n
        columns[entry : entry + g * n * n].reshape(g, n, n)[:] = idx[:, None, :]
        row, entry = row + g * n, entry + g * n * n
    np.cumsum(indptr, out=indptr)
    values = np.concatenate([blocks.ravel() for blocks in stiffness])
    local_rows = sp.csr_matrix((values, columns, indptr), shape=(len(row_unknown), shape[1]))
    del values, columns
    gathered = local_rows[np.argsort(row_unknown, kind="stable")]
    del local_rows
    starts = np.concatenate([[0], np.cumsum(np.bincount(row_unknown, minlength=shape[0]))])
    matrix = sp.csr_matrix((gathered.data, gathered.indices, gathered.indptr[starts]), shape=shape)
    matrix.sum_duplicates()
    return matrix


def assemble_load(
    mesh: PolygonMesh,
    kernels: list[KernelGroup],
    dofmap: GlobalDofMap,
    f,
) -> np.ndarray:
    """Scatter the local load pairings of the source density f.

    The pairings are computed cell by cell and scattered one group at a
    time, in cell order within the group.
    """
    b = np.zeros(dofmap.n_total)
    for group in kernels:
        loads = np.stack([local_load(kern, f) for kern in group.cells])
        b += np.bincount(
            dofmap.group_dofs(group.index).ravel(), weights=loads.ravel(), minlength=b.size
        )
    return b


def interpolate(dofmap: GlobalDofMap, w, grad_w) -> np.ndarray:
    """Global unknown vector of a smooth function given value and gradient.

    Every unknown is computed once: vertex values, the edge moments of all
    edges in one pass, and, from order 4, the interior moments one
    vertex-count group at a time (:func:`local.interior_moments`).
    """
    mesh = dofmap.mesh
    out = np.empty(dofmap.n_total)
    out[: mesh.n_vertices] = w(mesh.vertices[:, 0], mesh.vertices[:, 1])
    edges = np.arange(mesh.n_edges)
    normal, value = dofmap.edge_dofs(edges)
    out[normal], out[value] = edge_moments(mesh, edges, dofmap.order, w, grad_w)
    if dofmap.order >= 4:
        out[dofmap.offsets[3] :] = interior_moments(mesh, dofmap.order, w).ravel()
    return out


def boundary_values(
    mesh: PolygonMesh,
    dofmap: GlobalDofMap,
    bc: BoundarySpec,
) -> np.ndarray:
    """Values of the constrained unknowns (zeros for the clamped plate)."""
    values = np.zeros(dofmap.n_total)
    if bc.is_clamped:
        return values
    verts = np.flatnonzero(mesh.boundary_vertices)
    values[verts] = bc.value(mesh.vertices[verts, 0], mesh.vertices[verts, 1])
    edges = np.flatnonzero(mesh.edge_is_boundary)
    normal, value = dofmap.edge_dofs(edges)
    values[normal], values[value] = edge_moments(
        mesh, edges, dofmap.order, bc.value, bc.gradient
    )
    return values


BACKWARD_ERROR_TOL = 1e-10
# Smallest pivot of a factor, relative to its largest, that proves the
# factored matrix numerically nonsingular.
PIVOT_RATIO_TOL = 1e-12


@dataclass(frozen=True)
class SpdFactor:
    """Sparse Cholesky factor of a symmetric positive definite block of a matrix.

    Keeps the matrix the caller passed, the indices ``free`` of the factored
    block and the block's 1-norm: every solve refines against them. The
    block itself is not kept; :meth:`product` reads its products off the
    matrix.
    """

    matrix: sp.spmatrix
    free: np.ndarray
    norm_1: float
    cholesky: Cholesky

    @property
    def nnz(self) -> int:
        """Entries of L, the diagonal included."""
        return self.cholesky.nnz

    @property
    def pivot_ratio(self) -> float:
        """Smallest over largest pivot, diag(L)²."""
        return self.cholesky.pivot_ratio

    def product(self, x: np.ndarray) -> np.ndarray:
        """The factored block times x, as ``(matrix @ x_full)[free]``.

        ``x_full`` is x on the free unknowns and zero elsewhere. The other
        columns then add only exact zeros, so every entry is bitwise the
        block's own product.
        """
        x_full = np.zeros(self.matrix.shape[1])
        x_full[self.free] = x
        return (self.matrix @ x_full)[self.free]

    def solve(self, rhs: np.ndarray) -> tuple[np.ndarray, int]:
        """Solve with iterative refinement down to ``BACKWARD_ERROR_TOL``.

        Convergence is measured by the normwise backward error
        ``|r| / (|A| |x| + |b|)``, the tightest residual notion a
        fixed-precision factorization can meet once the fourth-order operator
        drives the condition number past the inverse tolerance. Returns the
        solution and the number of refinement steps taken.
        """
        substitute = self.cholesky.solve
        x = substitute(rhs)
        if not np.all(np.isfinite(x)):
            raise SolverError("solver produced non-finite values (singular matrix?)")
        rhs_norm = float(np.linalg.norm(rhs))
        if rhs_norm == 0.0:
            return np.zeros_like(rhs), 0

        def backward_error(vec):
            res = float(np.linalg.norm(rhs - self.product(vec)))
            return res / (self.norm_1 * float(np.linalg.norm(vec)) + rhs_norm)

        for step in range(3):
            if backward_error(x) <= BACKWARD_ERROR_TOL:
                return x, step
            x = x + substitute(rhs - self.product(x))
        err = backward_error(x)
        if err > BACKWARD_ERROR_TOL:
            raise SolverError(
                f"backward error {err:.3e} exceeds {BACKWARD_ERROR_TOL:.1e}: "
                "matrix is not symmetric positive definite"
            )
        return x, 3


def factor_spd(matrix: sp.csr_matrix, free: np.ndarray, dofmap: GlobalDofMap) -> SpdFactor:
    """Factor a symmetric positive definite block; the one factorization site.

    The factored matrix is the block ``matrix[free][:, free]`` of an exactly
    symmetric, canonical CSR ``matrix`` over the unknowns of ``dofmap``;
    ``np.arange(n)`` factors all of it. The elimination tree is a nested
    dissection of ``dofmap``'s mesh (:func:`multifrontal.dissect`) and the
    fronts read the free rows of ``matrix``: the block is never built, and
    only ``matrix`` is kept, for the refinement.

    A Cholesky factorization that completes proves the block positive
    definite; a pivot below ``PIVOT_RATIO_TOL`` of the largest flags it
    numerically singular (e.g. an unconstrained kernel).

    Raises
    ------
    SolverError
        When a pivot block is not positive definite, or the pivots show the
        matrix numerically singular.
    """
    cholesky = multifrontal.cholesky(matrix, free, multifrontal.dissect(dofmap, free))
    if not cholesky.pivot_ratio > PIVOT_RATIO_TOL:
        raise SolverError(
            "factorization found a numerically zero pivot: matrix is singular "
            "or not symmetric positive definite"
        )
    return SpdFactor(matrix, free, _norm_1(matrix, free), cholesky)


def _norm_1(matrix: sp.csr_matrix, free: np.ndarray) -> float:
    """Largest column sum of absolute values of ``matrix[free][:, free]``.

    By the symmetry of ``matrix`` that is the largest sum over a free row,
    read through a mask of the free columns, without building the block or
    a copy of the pattern: masked entries add exact zeros.
    """
    mask = np.zeros(matrix.shape[1])
    mask[free] = 1.0
    magnitude = sp.csr_matrix((np.abs(matrix.data), matrix.indices, matrix.indptr), matrix.shape)
    return float((magnitude @ mask)[free].max(initial=0.0))


class PlateSystem:
    """A stiffness matrix over the unknowns of a numbering, solved on its
    free block; shared by :class:`PlateSolver` and the Morley oracle.

    Each :meth:`solve_load` call applies boundary data to an assembled load
    and solves with the factor of the free block, made by
    :func:`factor_spd` on the first solve and kept in :attr:`factor`.
    :attr:`refine_steps` holds the refinement steps of the last solve.
    :attr:`matrix` is the only sparse matrix the system and its factor
    keep: the free block is never built, and the coupling to strong
    boundary data is read off :attr:`matrix` at each solve.
    """

    def __init__(self, matrix: sp.csr_matrix, dofmap: GlobalDofMap):
        self.matrix = matrix
        self.dofmap = dofmap
        mask = dofmap.boundary_mask
        self.free = np.flatnonzero(~mask)
        self.constrained = np.flatnonzero(mask)
        self.factor: SpdFactor | None = None
        self.refine_steps: int | None = None

    @property
    def n_dofs(self) -> int:
        return self.dofmap.n_total

    @property
    def nnz_factor(self) -> int | None:
        """Stored entries of the factor of the free block, once factored."""
        return None if self.factor is None else self.factor.nnz

    def solve_load(self, load: np.ndarray, bc: BoundarySpec) -> np.ndarray:
        """Solve for the full unknown vector under an assembled load and data."""
        values = boundary_values(self.dofmap.mesh, self.dofmap, bc)
        rhs = load[self.free]
        vals = values[self.constrained]
        if np.any(vals):
            # values is zero on the free unknowns: the product is the
            # constrained columns' alone, summed in the same order.
            rhs = rhs - (self.matrix @ values)[self.free]
        if self.factor is None:
            self.factor = factor_spd(self.matrix, self.free, self.dofmap)
        x, self.refine_steps = self.factor.solve(rhs)
        full = np.zeros(self.dofmap.n_total)
        full[self.free] = x
        full[self.constrained] = vals
        return full


class PlateSolver(PlateSystem):
    """Reusable discrete plate problem on a fixed mesh, order, and material.

    Builds the kernel groups, the global numbering, and the stiffness
    matrix once, and drops the local stiffness stacks after the scatter;
    each :meth:`solve` call assembles a load and solves it as a
    :class:`PlateSystem`.
    """

    def __init__(self, mesh: PolygonMesh, order: int, material: MaterialParams):
        self.mesh = mesh
        self.order = order
        self.material = material
        self.kernels, stiffness = build_local_kernels(mesh, order, material)
        dofmap = global_dof_map(mesh, order)
        matrix = assemble_stiffness([group.index for group in self.kernels], stiffness, dofmap)
        del stiffness
        super().__init__(matrix, dofmap)

    def solve(self, f, bc: BoundarySpec) -> np.ndarray:
        """Solve for the full unknown vector under the given load and data."""
        return self.solve_load(assemble_load(self.mesh, self.kernels, self.dofmap, f), bc)


def dump_matrix(matrix: sp.spmatrix, path) -> None:
    """Write a sparse matrix in coordinate text format (row col value)."""
    coo = matrix.tocoo()
    with open(path, "w") as fh:
        for r, c, v in zip(coo.row, coo.col, coo.data):
            fh.write(f"{r} {c} {v:.17g}\n")
