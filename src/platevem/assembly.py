"""Global numbering, boundary conditions, sparse assembly, and the SPD solve."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .local import LocalKernels, build_local_kernels, compute_dofs, dof_layout, local_load
from .mesh import PolygonMesh
from .plate import MaterialParams
from .polynomials import space_dim
from .quadrature import edge_rule


class AssemblyError(Exception):
    """Failure while building the global system."""


class SolverError(Exception):
    """Failure while factorizing or solving the reduced system."""


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

    def cell_dofs(self, c: int) -> np.ndarray:
        """Global indices of cell c's unknowns, in local layout order."""
        return self.group_dofs([c])[0]

    def group_dofs(self, cells) -> np.ndarray:
        """Global indices of the unknowns of cells sharing one vertex count.

        Returns a (len(cells), n_local) array, each row in local layout order.
        """
        mesh = self.mesh
        cells = np.asarray(cells, dtype=int)
        ids = mesh.cells.stack(cells)
        eids = mesh.cell_edges.stack(cells)[..., None]
        _, o_en, o_ev, o_cell = self.offsets
        parts = [ids]
        if self._n_en:
            parts.append(o_en + eids * self._n_en + np.arange(self._n_en))
        if self._n_ev:
            parts.append(o_ev + eids * self._n_ev + np.arange(self._n_ev))
        if self._n_cell:
            parts.append(o_cell + cells[:, None] * self._n_cell + np.arange(self._n_cell))
        return np.concatenate([p.reshape(len(cells), -1) for p in parts], axis=1)

    @property
    def boundary_mask(self) -> np.ndarray:
        """True for unknowns constrained by boundary conditions.

        Boundary vertices and every edge moment (both kinds) of boundary
        edges are constrained; interior moments never are.
        """
        mesh = self.mesh
        mask = np.zeros(self.n_total, dtype=bool)
        mask[: mesh.n_vertices] = mesh.boundary_vertices
        _, o_en, o_ev, _ = self.offsets
        bnd_edges = np.flatnonzero(mesh.edge_is_boundary)
        for e in bnd_edges:
            mask[o_en + e * self._n_en : o_en + (e + 1) * self._n_en] = True
            if self._n_ev:
                mask[o_ev + e * self._n_ev : o_ev + (e + 1) * self._n_ev] = True
        return mask

    def closed_form_count(self) -> int:
        mesh = self.mesh
        n = mesh.n_vertices + (self.order - 1) * mesh.n_edges
        if self.order >= 3:
            n += (self.order - 2) * mesh.n_edges
        if self.order >= 4:
            n += space_dim(self.order - 4) * mesh.n_cells
        return n


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
    mesh: PolygonMesh, kernels: list[LocalKernels], dofmap: GlobalDofMap
) -> sp.csr_matrix:
    """Scatter the local stiffness matrices into the full symmetric matrix.

    Cells are scattered one vertex-count group at a time, from the stacked
    stiffness blocks and unknown indices of the group.
    """
    counts = np.array([kern.layout.n_vertices for kern in kernels])
    rows, cols, vals = [], [], []
    for m in np.unique(counts):
        cells = np.flatnonzero(counts == m)
        idx = dofmap.group_dofs(cells)
        n = idx.shape[1]
        rows.append(np.repeat(idx, n, axis=1).ravel())
        cols.append(np.tile(idx, n).ravel())
        vals.append(np.stack([kernels[c].stiffness for c in cells]).ravel())
    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dofmap.n_total, dofmap.n_total),
    )
    return mat.tocsr()


def assemble_load(
    mesh: PolygonMesh,
    kernels: list[LocalKernels],
    dofmap: GlobalDofMap,
    f,
    quad_degree: int | None = None,
) -> np.ndarray:
    """Scatter the local load pairings of the source density f."""
    b = np.zeros(dofmap.n_total)
    for c, kern in enumerate(kernels):
        np.add.at(b, dofmap.cell_dofs(c), local_load(kern, f, quad_degree))
    return b


def boundary_values(
    mesh: PolygonMesh,
    dofmap: GlobalDofMap,
    bc: BoundarySpec,
    quad_degree: int | None = None,
) -> np.ndarray:
    """Values of the constrained unknowns (zeros for the clamped plate)."""
    values = np.zeros(dofmap.n_total)
    if bc.is_clamped:
        return values
    degree = quad_degree if quad_degree is not None else dofmap.order + 8
    verts = np.flatnonzero(mesh.boundary_vertices)
    values[verts] = bc.value(mesh.vertices[verts, 0], mesh.vertices[verts, 1])
    _, o_en, o_ev, _ = dofmap.offsets
    n_en, n_ev = dofmap._n_en, dofmap._n_ev
    for e in np.flatnonzero(mesh.edge_is_boundary):
        v0, v1 = mesh.edge_vertices[e]
        p0, p1 = mesh.vertices[v0], mesh.vertices[v1]
        vec = p1 - p0
        length = float(np.linalg.norm(vec))
        tangent = vec / length
        normal = np.array([tangent[1], -tangent[0]])
        rule = edge_rule(p0, p1, degree)
        x, y = rule.points[:, 0], rule.points[:, 1]
        that = 2.0 * ((rule.points - 0.5 * (p0 + p1)) @ tangent) / length
        gx, gy = bc.gradient(x, y)
        dn = normal[0] * gx + normal[1] * gy
        wvals = bc.value(x, y)
        for k in range(n_en):
            values[o_en + e * n_en + k] = rule.weights @ (dn * that**k)
        for k in range(n_ev):
            values[o_ev + e * n_ev + k] = rule.weights @ (wvals * that**k) / length
    return values


BACKWARD_ERROR_TOL = 1e-10


def _check_pivots(lu) -> None:
    """Prove the factored matrix symmetric positive definite, or raise.

    With diagonal pivoting an SPD matrix factors without row interchanges
    (``perm_r == perm_c``) and with every pivot, the diagonal of ``U``,
    positive. A pivot below 1e-12 of the largest flags a numerically
    singular matrix (e.g. an unconstrained kernel).
    """
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise SolverError(
            "factorization needed row interchanges: matrix is not symmetric "
            "positive definite"
        )
    pivots = lu.U.diagonal()
    magnitude = np.abs(pivots)
    if magnitude.min() <= 1e-12 * max(magnitude.max(), 1e-300):
        raise SolverError(
            "factorization found a numerically zero pivot: matrix is singular "
            "or not symmetric positive definite"
        )
    negative = int(np.count_nonzero(pivots < 0.0))
    if negative:
        raise SolverError(
            f"factorization found {negative} negative pivots: matrix is not "
            "symmetric positive definite"
        )


@dataclass(frozen=True)
class SpdFactor:
    """Sparse factor of a symmetric positive definite matrix.

    Keeps the matrix and its 1-norm next to the factor: every solve refines
    against them.
    """

    matrix: sp.csc_matrix
    lu: object  # scipy.sparse.linalg.SuperLU
    norm_1: float

    def solve(self, rhs: np.ndarray) -> tuple[np.ndarray, int]:
        """Solve with iterative refinement down to ``BACKWARD_ERROR_TOL``.

        Convergence is measured by the normwise backward error
        ``|r| / (|A| |x| + |b|)``, the tightest residual notion a
        fixed-precision factorization can meet once the fourth-order operator
        drives the condition number past the inverse tolerance. Returns the
        solution and the number of refinement steps taken.
        """
        a, lu = self.matrix, self.lu
        x = lu.solve(rhs)
        if not np.all(np.isfinite(x)):
            raise SolverError("solver produced non-finite values (singular matrix?)")
        rhs_norm = float(np.linalg.norm(rhs))
        if rhs_norm == 0.0:
            return np.zeros_like(rhs), 0

        def backward_error(vec):
            res = float(np.linalg.norm(rhs - a @ vec))
            return res / (self.norm_1 * float(np.linalg.norm(vec)) + rhs_norm)

        for step in range(3):
            if backward_error(x) <= BACKWARD_ERROR_TOL:
                return x, step
            x = x + lu.solve(rhs - a @ x)
        err = backward_error(x)
        if err > BACKWARD_ERROR_TOL:
            raise SolverError(
                f"backward error {err:.3e} exceeds {BACKWARD_ERROR_TOL:.1e}: "
                "matrix is not symmetric positive definite"
            )
        return x, 3


def factor_spd(matrix: sp.spmatrix) -> SpdFactor:
    """Factor a symmetric positive definite matrix; the one factorization site.

    Multiple minimum degree on ``A + A^T`` with diagonal pivots: the ordering
    sees the symmetric pattern, and an SPD matrix needs no row interchanges.

    Raises
    ------
    SolverError
        When the factorization breaks down or its pivots show the matrix is
        singular or not symmetric positive definite.
    """
    a = matrix.tocsc()
    try:
        lu = spla.splu(
            a,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise SolverError(f"sparse factorization failed: {exc}") from exc
    _check_pivots(lu)
    return SpdFactor(a, lu, float(spla.norm(a, 1)))


class PlateSolver:
    """Reusable discrete plate problem on a fixed mesh, order, and material.

    Builds the per-cell kernels, the global numbering, and the stiffness
    matrix once; each :meth:`solve` call assembles a load, applies boundary
    data, and solves with the factor of the free block, made by
    :func:`factor_spd` on the first solve and kept in :attr:`factor`.
    :attr:`refine_steps` holds the refinement steps of the last solve.
    """

    def __init__(self, mesh: PolygonMesh, order: int, material: MaterialParams):
        self.mesh = mesh
        self.order = order
        self.material = material
        self.kernels = build_local_kernels(mesh, order, material)
        self.dofmap = global_dof_map(mesh, order)
        self.matrix = assemble_stiffness(mesh, self.kernels, self.dofmap)
        mask = self.dofmap.boundary_mask
        self.free = np.flatnonzero(~mask)
        self.constrained = np.flatnonzero(mask)
        rows = self.matrix[self.free]
        self._a_ff = rows[:, self.free].tocsc()
        self._a_fc = rows[:, self.constrained].tocsr()
        self.factor: SpdFactor | None = None
        self.refine_steps: int | None = None

    @property
    def n_dofs(self) -> int:
        return self.dofmap.n_total

    @property
    def nnz_factor(self) -> int | None:
        """Stored entries of the factor of the free block, once factored."""
        return None if self.factor is None else int(self.factor.lu.nnz)

    def solve(
        self, f, bc: BoundarySpec, quad_degree: int | None = None
    ) -> np.ndarray:
        """Solve for the full unknown vector under the given load and data."""
        load = assemble_load(self.mesh, self.kernels, self.dofmap, f, quad_degree)
        values = boundary_values(self.mesh, self.dofmap, bc, quad_degree)
        rhs = load[self.free]
        vals = values[self.constrained]
        if np.any(vals):
            rhs = rhs - self._a_fc @ vals
        if self.factor is None:
            self.factor = factor_spd(self._a_ff)
        x, self.refine_steps = self.factor.solve(rhs)
        full = np.zeros(self.dofmap.n_total)
        full[self.free] = x
        full[self.constrained] = vals
        return full

    def interpolate(self, w, grad_w, quad_degree: int | None = None) -> np.ndarray:
        """Global unknown vector of a smooth function (defined cell by cell).

        Shared unknowns are written once per incident cell with identical
        values, so the result is the plain interpolant.
        """
        out = np.zeros(self.dofmap.n_total)
        for c in range(self.mesh.n_cells):
            frame = self.kernels[c].frame
            out[self.dofmap.cell_dofs(c)] = compute_dofs(
                frame, self.order, w, grad_w, quad_degree
            )
        return out


def dump_matrix(matrix: sp.spmatrix, path) -> None:
    """Write a sparse matrix in coordinate text format (row col value)."""
    coo = matrix.tocoo()
    with open(path, "w") as fh:
        for r, c, v in zip(coo.row, coo.col, coo.data):
            fh.write(f"{r} {c} {v:.17g}\n")
