"""The nested dissection, the multifrontal Cholesky factor and its SPD proof."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from platevem import manufactured, multifrontal
from platevem.assembly import BoundarySpec, PlateSolver, SolverError, factor_spd
from platevem.generators import FAMILIES
from platevem.plate import DEFAULT_MATERIAL

from conftest import dense_lower

CASES = [("crisscross", 1, 2), ("hexagonal", 1, 3), ("octagonal", 2, 5), ("randomquad", 1, 4)]


def free_block(solver: PlateSolver) -> sp.csr_matrix:
    return solver.matrix[solver.free][:, solver.free]


@pytest.mark.parametrize("family, n, order", CASES)
def test_fronts_partition_the_free_unknowns(family, n, order, mesh_cache):
    """The permutation is a bijection on the free unknowns; every free
    unknown is a pivot of exactly one front, and each entity's unknowns are
    consecutive; each child's update rows are later rows of its parent's
    front, and a root has none."""
    solver = PlateSolver(mesh_cache(family, n), order, DEFAULT_MATERIAL)
    tree = multifrontal.dissect(solver.dofmap, solver.free)
    n_free = len(solver.free)
    assert np.array_equal(np.sort(tree.perm), np.arange(n_free))
    assert tree.starts[0] == 0 and tree.starts[-1] == n_free
    assert np.all(np.diff(tree.starts) > 0)
    assert tree.n_fronts > 1
    entities = solver.dofmap.unknown_entities()[solver.free][tree.perm]
    runs = np.count_nonzero(np.diff(entities)) + 1
    assert runs == len(np.unique(entities))
    for f, (parent, rows) in enumerate(zip(tree.parent, tree.updates)):
        assert np.all(np.diff(rows) > 0)
        if parent < 0:
            assert rows.size == 0
            continue
        assert parent > f
        assert rows.size == 0 or rows[0] >= tree.starts[f + 1]
        front = np.concatenate([np.arange(tree.starts[parent], tree.starts[parent + 1]),
                                tree.updates[parent]])
        assert np.isin(rows, front).all()


def test_two_builds_give_identical_trees(mesh_cache):
    solver = PlateSolver(mesh_cache("randomquad", 2, 3), 3, DEFAULT_MATERIAL)
    first = multifrontal.dissect(solver.dofmap, solver.free)
    second = multifrontal.dissect(solver.dofmap, solver.free.copy())
    assert np.array_equal(first.perm, second.perm)
    assert np.array_equal(first.starts, second.starts)
    assert np.array_equal(first.parent, second.parent)
    assert len(first.updates) == len(second.updates)
    assert all(np.array_equal(a, b) for a, b in zip(first.updates, second.updates))


@pytest.mark.parametrize("family", FAMILIES)
def test_solutions_match_spsolve(family, mesh_cache):
    """At orders 2-5 on n = 0 and 1, the refined solution and SciPy's
    sparse LU solution differ by a residual within a 1e-10 backward error."""
    rng = np.random.default_rng(11)
    for n in (0, 1):
        for order in (2, 3, 4, 5):
            solver = PlateSolver(mesh_cache(family, n), order, DEFAULT_MATERIAL)
            block = free_block(solver)
            rhs = rng.uniform(-1, 1, block.shape[0])
            x, _ = factor_spd(solver.matrix, solver.free, solver.dofmap).solve(rhs)
            expected = spla.spsolve(block.tocsc(), rhs)
            scale = spla.norm(block, 1) * np.linalg.norm(x) + np.linalg.norm(rhs)
            assert np.linalg.norm(rhs - block @ x) <= 1e-10 * scale, (n, order)
            assert np.linalg.norm(block @ (x - expected)) <= 1e-10 * scale, (n, order)


def test_factor_reports_its_fill_and_pivots(mesh_cache):
    """``nnz`` counts the stored entries of L, ``pivot_ratio`` is the
    smallest over the largest of diag(L)², and the solver reports both."""
    solver = PlateSolver(mesh_cache("octagonal", 1), 5, DEFAULT_MATERIAL)
    solver.solve(manufactured.load(DEFAULT_MATERIAL), BoundarySpec.clamped())
    factor = solver.factor
    lower, stored = dense_lower(factor.cholesky)
    pivots = np.diag(lower) ** 2
    assert factor.nnz == solver.nnz_factor == np.count_nonzero(stored)
    assert factor.pivot_ratio == pivots.min() / pivots.max()
    assert factor.cholesky.tree.n_fronts > 1


def test_dissection_waits_for_the_first_solve(mesh_cache, monkeypatch):
    """The tree is built with the factor, once, and never at set-up."""
    calls = []
    dissect = multifrontal.dissect

    def counting(*args):
        calls.append(args)
        return dissect(*args)

    monkeypatch.setattr(multifrontal, "dissect", counting)
    solver = PlateSolver(mesh_cache("hexagonal", 0), 3, DEFAULT_MATERIAL)
    assert not calls
    for _ in range(2):
        solver.solve(manufactured.load(DEFAULT_MATERIAL), BoundarySpec.clamped())
        assert len(calls) == 1


def test_block_with_one_negative_eigenvalue_rejected(mesh_cache):
    """The free block shifted between its two smallest eigenvalues has
    exactly one negative eigenvalue, so one negative pivot."""
    solver = PlateSolver(mesh_cache("octagonal", 0), 3, DEFAULT_MATERIAL)
    low = np.linalg.eigvalsh(free_block(solver).toarray())[:2]
    shift = np.zeros(solver.n_dofs)
    shift[solver.free] = low.mean()
    shifted = (solver.matrix - sp.diags(shift)).tocsr()
    eigenvalues = np.linalg.eigvalsh(shifted[solver.free][:, solver.free].toarray())
    assert np.count_nonzero(eigenvalues < 0) == 1
    with pytest.raises(SolverError, match="negative pivots"):
        factor_spd(shifted, solver.free, solver.dofmap)


def test_all_constrained_mesh_has_an_empty_factor():
    """With no free unknown the tree has no front and the solve returns the
    boundary data."""
    from platevem.mesh import derive_topology

    mesh = derive_topology(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), [[0, 1, 2]])
    solver = PlateSolver(mesh, 2, DEFAULT_MATERIAL)
    solution = solver.solve(manufactured.load(DEFAULT_MATERIAL), BoundarySpec.clamped())
    assert np.array_equal(solution, np.zeros(6))
    assert solver.nnz_factor == solver.factor.cholesky.tree.n_fronts == 0


def test_free_block_with_nan_rejected(mesh_cache):
    """A NaN entry of the free block fails the factorization at once, not
    later in the solve's check of its result."""
    solver = PlateSolver(mesh_cache("octagonal", 0), 3, DEFAULT_MATERIAL)
    matrix = solver.matrix.copy()
    row = solver.free[len(solver.free) // 2]
    matrix.data[matrix.indptr[row] : matrix.indptr[row + 1]][
        matrix.indices[matrix.indptr[row] : matrix.indptr[row + 1]] == row
    ] = np.nan
    with pytest.raises(SolverError, match="non-finite pivots"):
        factor_spd(matrix, solver.free, solver.dofmap)


def test_shuffled_numbering_factors(mesh_cache):
    """Vertices and cells numbered at random break the runs of consecutive
    rows the extend-add works by; the factor is as good."""
    from platevem.mesh import derive_topology

    mesh = mesh_cache("octagonal", 1)
    rng = np.random.default_rng(3)
    order = rng.permutation(mesh.n_vertices)
    renumber = np.argsort(order)
    cells = [renumber[np.asarray(cell)] for cell in mesh.cells]
    shuffled = derive_topology(mesh.vertices[order], [cells[c] for c in rng.permutation(len(cells))])
    solver = PlateSolver(shuffled, 5, DEFAULT_MATERIAL)
    block = free_block(solver)
    rhs = rng.uniform(-1, 1, block.shape[0])
    x, steps = factor_spd(solver.matrix, solver.free, solver.dofmap).solve(rhs)
    scale = spla.norm(block, 1) * np.linalg.norm(x) + np.linalg.norm(rhs)
    assert np.linalg.norm(rhs - block @ x) <= 1e-10 * scale
    assert steps <= 1
