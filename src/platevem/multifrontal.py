"""Sparse Cholesky factorization: multifrontal, on a nested dissection of the mesh.

The elimination tree comes from the mesh, not from the matrix. The cells are
bisected recursively at the median centroid along each part's longer side;
every vertex, edge and cell belongs to the smallest part holding all of its
cells, and its free unknowns are that part's pivots. The unknowns of two
entities couple only through a cell they share, so eliminating a part's
unknowns couples only the entities of ancestor parts that touch its cells:
those are the update rows of its front (George, "Nested dissection of a
regular finite element mesh", SIAM J. Numer. Anal. 1973).

Each front is a dense lower triangle, factored by LAPACK and BLAS: the
Cholesky factor of its pivot block, the triangular solve of the rows below
it, and the update matrix that the parent front adds into its own (Duff and
Reid, "The multifrontal solution of indefinite sparse symmetric linear
equations", ACM TOMS 1983). The factor stores only L.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, lapack

# A part of the dissection is not bisected further once the entities touching
# its cells carry at most this many free unknowns: a leaf front is that small.
LEAF_UNKNOWNS = 256
# Smallest pivot of a factor, relative to its largest, that proves the
# factored matrix numerically nonsingular.
PIVOT_RATIO_TOL = 1e-12


class SolverError(Exception):
    """Failure while factorizing or solving the reduced system."""


@dataclass(frozen=True)
class EliminationTree:
    """Fronts of a nested dissection, in postorder.

    ``perm`` lists positions into the factored unknowns in elimination
    order. Front f has the pivots ``starts[f]:starts[f + 1]`` of that order
    and the update rows ``updates[f]`` (sorted elimination indices, all of
    later fronts); ``parent[f]`` is the front it adds its update matrix to,
    -1 for a root.
    """

    perm: np.ndarray
    starts: np.ndarray
    updates: list
    parent: np.ndarray

    @property
    def n_fronts(self) -> int:
        return len(self.parent)


def _incidence(mesh) -> tuple[np.ndarray, np.ndarray]:
    """(entity, cell) pairs of every vertex, edge and cell, sorted by entity."""
    n_v, n_e, n_c = mesh.n_vertices, mesh.n_edges, mesh.n_cells
    has = mesh.edge_cells >= 0
    entity = np.concatenate(
        [
            mesh.cells.flat,
            n_v + np.broadcast_to(np.arange(n_e)[:, None], (n_e, 2))[has],
            n_v + n_e + np.arange(n_c),
        ]
    )
    cell = np.concatenate(
        [np.repeat(np.arange(n_c), mesh.cells.lengths), mesh.edge_cells[has], np.arange(n_c)]
    )
    order = np.argsort(entity, kind="stable")
    return entity[order], cell[order]


def dissect(dofmap, free: np.ndarray) -> EliminationTree:
    """Elimination tree of the unknowns ``free`` of a global numbering.

    Bisects all parts of one level at once, and stops a part once the
    entities touching its cells carry at most ``LEAF_UNKNOWNS`` free
    unknowns. Parts that own no free unknown give no front: their children
    add into the nearest ancestor that has one. The tree depends on the
    mesh and ``free`` only.
    """
    mesh = dofmap.mesh
    entity_of = dofmap.unknown_entities()[free]
    size = np.bincount(entity_of, minlength=mesh.n_vertices + mesh.n_edges + mesh.n_cells)
    entity, cell = _incidence(mesh)
    keep = size[entity] > 0
    entity, cell = entity[keep], cell[keep]
    head = np.diff(entity, prepend=-1) > 0
    first = np.flatnonzero(head)
    live = entity[first]  # the entities with free unknowns
    n_live = len(live)
    which = np.cumsum(head) - 1  # index into ``live`` of each pair
    live_size = size[live]

    part = np.zeros(mesh.n_cells, dtype=np.int64)  # node of each cell
    parent = [-1]
    owner = np.zeros(n_live, dtype=np.int64)  # smallest node holding all cells
    straddling = []  # (node, live entity) keys: ancestors' entities touching a node
    active = np.array([0])  # the nodes of the deepest level
    while True:
        n_nodes = len(parent)
        node = part[cell]
        lo = np.minimum.reduceat(node, first)
        inner = lo == np.maximum.reduceat(node, first)
        owner[inner] = lo[inner]
        new = node >= active[0]
        keys = np.sort(node[new] * n_live + which[new])
        keys = keys[np.diff(keys, prepend=-1) > 0]
        local = np.bincount(keys // n_live, weights=live_size[keys % n_live], minlength=n_nodes)
        straddling.append(keys[~inner[keys % n_live]])
        n_cells = np.bincount(part, minlength=n_nodes)
        split = active[(local[active] > LEAF_UNKNOWNS) & (n_cells[active] > 1)]
        if not split.size:
            break
        # Cells of the splitting nodes grouped by node, each node's sorted
        # along the longer side of its centroids' bounding box.
        is_split = np.zeros(n_nodes, dtype=bool)
        is_split[split] = True
        cells = np.flatnonzero(is_split[part])
        cells = cells[np.argsort(part[cells], kind="stable")]
        counts = n_cells[split]
        heads = np.cumsum(counts) - counts
        xy = mesh.centroids[cells]
        extent = np.maximum.reduceat(xy, heads) - np.minimum.reduceat(xy, heads)
        along = xy[np.arange(len(cells)), np.repeat(np.argmax(extent, axis=1), counts)]
        cells = cells[np.lexsort((along, part[cells]))]
        rank = np.arange(len(cells)) - np.repeat(heads, counts)
        part = part.copy()
        part[cells] = n_nodes + 2 * np.repeat(np.arange(len(split)), counts) + (
            rank >= np.repeat(counts // 2, counts)
        )
        parent.extend(np.repeat(split, 2).tolist())
        active = np.arange(n_nodes, len(parent))
    parent = np.array(parent)

    # Postorder: a depth-first walk that visits the later child first,
    # reversed, lists every subtree before its root.
    children = [[] for _ in parent]
    for child, p in enumerate(parent[1:].tolist(), start=1):
        children[p].append(child)
    walk, stack = [], [0]
    while stack:
        node = stack.pop()
        walk.append(node)
        stack.extend(children[node])
    post = np.empty(len(parent), dtype=np.int64)
    post[walk[::-1]] = np.arange(len(parent))

    # Fronts: the nodes that own free unknowns, in postorder.
    pivots = np.bincount(owner, weights=live_size, minlength=len(parent)).astype(np.int64)
    kept = pivots > 0
    fronts = np.argsort(post)
    fronts = fronts[kept[fronts]]
    front_of = np.full(len(parent), -1)
    front_of[fronts] = np.arange(len(fronts))
    up = parent[fronts]
    lost = up >= 0
    while np.any(lost):
        lost[lost] = ~kept[up[lost]]
        up[lost] = parent[up[lost]]
        lost &= up >= 0
    front_parent = np.where(up >= 0, front_of[up], -1)

    # Free unknowns entity by entity, the entities in postorder of their owners.
    owner_of = np.zeros(len(size), dtype=np.int64)
    owner_of[live] = owner
    perm = np.lexsort((entity_of, post[owner_of[entity_of]]))
    heads = np.flatnonzero(np.diff(entity_of[perm], prepend=-1))
    live_start = np.empty(n_live, dtype=np.int64)  # first elimination index
    live_start[np.searchsorted(live, entity_of[perm][heads])] = heads
    starts = np.r_[0, np.cumsum(pivots[fronts])]

    # Update rows: each kept node's straddling entities, in elimination order.
    node, ent = np.divmod(np.concatenate(straddling), n_live)
    node, ent = node[kept[node]], ent[kept[node]]
    order = np.lexsort((live_start[ent], post[node]))
    node, ent = front_of[node[order]], ent[order]
    counts = live_size[ent]
    rows = np.repeat(live_start[ent] - np.cumsum(counts) + counts, counts) + np.arange(
        counts.sum()
    )
    cuts = np.r_[0, np.cumsum(np.bincount(np.repeat(node, counts), minlength=len(fronts)))]
    updates = [rows[a:b] for a, b in zip(cuts[:-1].tolist(), cuts[1:].tolist())]
    return EliminationTree(perm, starts, updates, front_parent)


@dataclass(frozen=True)
class Cholesky:
    """The factor L of P A Pᵀ = L Lᵀ, one dense panel per front.

    ``fronts[f]`` is ``(start, rows, diagonal, below)``: the first pivot of
    front f in elimination order, its update rows, its pivot block of L in
    the lower triangle of ``diagonal`` (the upper one is not read), and the
    rows of L at ``rows`` under it, in ``below``.
    """

    tree: EliminationTree
    fronts: list
    pivot_ratio: float  # min / max of diag(L)²

    @property
    def nnz(self) -> int:
        """Entries of L, the diagonal included."""
        return sum(d.shape[0] * (d.shape[0] + 1) // 2 + b.size for _, _, d, b in self.fronts)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """x with P A Pᵀ (P x) = P rhs: forward, then backward, over the fronts."""
        perm = self.tree.perm
        y = np.asarray(rhs, dtype=float)[perm]
        for start, rows, diagonal, below in self.fronts:
            blas.dtrsv(diagonal, y, offx=start, lower=1, overwrite_x=1)
            if len(rows):
                y[rows] -= below @ y[start : start + len(diagonal)]
        for start, rows, diagonal, below in reversed(self.fronts):
            if len(rows):
                y[start : start + len(diagonal)] -= y[rows] @ below
            blas.dtrsv(diagonal, y, offx=start, lower=1, trans=1, overwrite_x=1)
        x = np.empty_like(y)
        x[perm] = y
        return x


def cholesky(matrix, free: np.ndarray, tree: EliminationTree) -> Cholesky:
    """Factor the block ``matrix[free][:, free]`` of a symmetric CSR matrix.

    Each front is filled from the free rows of ``matrix``, whose entries
    must be unique (canonical CSR): by symmetry a pivot's row is the
    front's column of the block, so the block itself is never built. The
    front has one extra row first, where the entries of constrained or
    already eliminated columns land unread. Only the lower triangle is
    zeroed, filled and read; the upper one keeps finite leftovers of earlier
    fronts. Each child's update matrix is
    added into the lower triangle of its parent's front, one run of rows
    that are consecutive in the parent at a time, and released.

    Raises
    ------
    SolverError
        When a pivot is negative, zero or not finite, or at most
        ``PIVOT_RATIO_TOL`` of the largest (numerically singular).
    """
    perm, starts, updates = tree.perm, tree.starts, tree.updates
    n = len(perm)
    where = np.full(matrix.shape[1], n, dtype=np.int64)
    where[free[perm]] = np.arange(n)
    pos = np.zeros(n + 1, dtype=np.int64)  # 1 + front row of each elimination index, 0 if none
    rows = matrix[free[perm]]  # the free rows, in elimination order
    indptr, indices, data = rows.indptr, rows.indices, rows.data
    del rows
    children = [[] for _ in range(tree.n_fronts)]
    for child, p in enumerate(tree.parent):
        if p >= 0:
            children[p].append(child)
    pending = {}
    fronts = []
    lowest, highest = np.inf, 0.0
    sizes = np.diff(starts) + [len(u) for u in updates]
    work = np.zeros(int(np.max((sizes + 1) * sizes, initial=0)))
    for f in range(tree.n_fronts):
        s, e, upd = starts[f], starts[f + 1], updates[f]
        k, m = e - s, e - s + len(upd)
        pos[s:e] = np.arange(1, k + 1)
        pos[upd] = np.arange(k + 1, m + 1)
        lo, hi = indptr[s], indptr[e]
        flat = work[: (m + 1) * m]
        for j in range(0, m, 64):  # the lower triangle, 64 columns at a time
            flat[j * (m + 2) + 1 : (j + 64) * (m + 1)] = 0.0
        flat[
            pos[where[indices[lo:hi]]]
            + np.repeat(np.arange(0, k * (m + 1), m + 1), np.diff(indptr[s : e + 1]))
        ] = data[lo:hi]
        front = flat.reshape(m + 1, m, order="F")[1:]
        for child in children[f]:
            update, child_rows = pending.pop(child)
            at = pos[child_rows] - 1
            heads = np.flatnonzero(np.diff(at, prepend=-2) != 1)
            for a, b, r in zip(heads.tolist(), heads[1:].tolist() + [len(at)], at[heads].tolist()):
                front[r : r + b - a, at[:b]] += update[a:b, :b]
            del update
        pos[s:e] = 0
        factor, info = lapack.dpotrf(front[:k, :k], lower=1, clean=0)
        pivots = np.diagonal(factor) ** 2
        # A NaN pivot need not stop dpotrf (OpenBLAS tests only ajj <= 0),
        # and min/max would pass over it, so non-finite pivots fail here.
        if info > 0 or not np.isfinite(pivots).all():
            pivot = factor[info - 1, info - 1] if info > 0 else np.nan
            if not np.isfinite(pivot):
                kind = "non-finite pivots"
            elif pivot < 0.0:
                kind = "negative pivots"
            else:
                kind = "a numerically zero pivot"
            raise SolverError(
                f"Cholesky factorization met {kind}: matrix is not symmetric positive definite"
            )
        lowest, highest = min(lowest, pivots.min()), max(highest, pivots.max())
        below = np.empty((0, k))
        if m > k:
            below = blas.dtrsm(1.0, factor, front[k:, :k], side=1, lower=1, trans_a=1)
            pending[f] = (blas.dsyrk(-1.0, below, beta=1.0, c=front[k:, k:], lower=1), upd)
        fronts.append((int(s), upd, factor, below))
    ratio = float(lowest / highest) if n else 1.0
    if not ratio > PIVOT_RATIO_TOL:
        raise SolverError(
            "factorization found a numerically zero pivot: matrix is singular "
            "or not symmetric positive definite"
        )
    return Cholesky(tree, fronts, ratio)
