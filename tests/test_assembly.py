import tracemalloc
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from platevem import assembly, local, manufactured
from platevem import convergence as cv
from platevem.assembly import (
    AssemblyError,
    BoundarySpec,
    PlateSolver,
    PlateSystem,
    SolverError,
    assemble_stiffness,
    boundary_values,
    dump_matrix,
    factor_spd,
    global_dof_map,
    interpolate,
)
from platevem.generators import build_family
from platevem.local import build_local_kernels
from platevem.mesh import CellGroup, CellRows, derive_topology
from platevem.plate import DEFAULT_MATERIAL, MaterialParams

from conftest import cell_views, dense_lower, reference_cell_dofs
from oracles import cell_frame, edge_normal_slice, point_interior_moments, transposed_stiffness
from reference_counts import BY_FAMILY, closed_form_count


def zero_f(x, y):
    return np.zeros_like(np.asarray(x, dtype=float))


def test_global_count_criss_order2(mesh_cache):
    """NumPy integers number as Python ones do."""
    for order in (2, np.int64(2)):
        dofmap = global_dof_map(mesh_cache("crisscross", 0), order)
        assert dofmap.n_total == 221
        assert dofmap.n_total == closed_form_count(dofmap.mesh, dofmap.order)


def test_global_count_octagonal_order5(mesh_cache):
    dofmap = global_dof_map(mesh_cache("octagonal", 0), 5)
    assert dofmap.n_total == 1011


def test_single_triangle_all_constrained():
    mesh = derive_topology(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), [[0, 1, 2]]
    )
    dofmap = global_dof_map(mesh, 2)
    assert dofmap.n_total == 6
    assert dofmap.boundary_mask.all()


def test_rejects_order_one(mesh_cache):
    with pytest.raises(AssemblyError):
        global_dof_map(mesh_cache("crisscross", 0), 1)


def test_solver_rejects_order_one(mesh_cache):
    """The solver numbers the unknowns before it builds the kernels, so a
    bad order raises the numbering's classified error."""
    with pytest.raises(AssemblyError, match="order must be at least 2"):
        PlateSolver(mesh_cache("crisscross", 0), 1, DEFAULT_MATERIAL)


@pytest.mark.parametrize("order", [2.0, "3", None])
def test_solver_rejects_non_integral_order(order, mesh_cache):
    """A float, string or missing order is the numbering's classified error,
    not NumPy's."""
    with pytest.raises(AssemblyError, match="order must be an integer"):
        PlateSolver(mesh_cache("crisscross", 0), order, DEFAULT_MATERIAL)


def test_cell_dofs_disjoint_blocks(mesh_cache):
    mesh = mesh_cache("crisscross", 0)
    dofmap = global_dof_map(mesh, 4)
    seen = np.zeros(dofmap.n_total, dtype=int)
    for idx in dofmap.group_dofs(np.arange(mesh.n_cells)):
        assert len(set(idx.tolist())) == len(idx)
        seen[idx] += 1
    assert seen.min() >= 1  # every unknown touched by at least one cell


def test_boundary_entity_counts(mesh_cache):
    """Brute-force recount of constrained unknowns on the coarse mesh.

    The criss-cross n=0 boundary has 20 vertices and 20 edges, so the
    order-2 clamped problem eliminates 40 unknowns leaving 181 free.
    """
    mesh = mesh_cache("crisscross", 0)
    n_bnd_edges = int(mesh.edge_is_boundary.sum())
    n_bnd_verts = int(mesh.boundary_vertices.sum())
    assert n_bnd_edges == 20
    assert n_bnd_verts == 20
    dofmap = global_dof_map(mesh, 2)
    free = int((~dofmap.boundary_mask).sum())
    assert free == 221 - 40 == 181


def free_block(solver: PlateSolver) -> sp.csr_matrix:
    """The reduced matrix the solver factors: the free x free block."""
    return solver.matrix[solver.free][:, solver.free]


def test_reduced_matrix_spd(mesh_cache):
    solver = PlateSolver(mesh_cache("crisscross", 0), 2, DEFAULT_MATERIAL)
    dense = free_block(solver).toarray()
    assert np.abs(dense - dense.T).max() == 0.0
    w = np.linalg.eigvalsh(dense)
    assert w.min() > 0


def test_assembled_matrix_symmetric(mesh_cache):
    mesh = mesh_cache("octagonal", 0)
    kernels, stiffness = build_local_kernels(mesh, 3, DEFAULT_MATERIAL)
    dofmap = global_dof_map(mesh, 3)
    full = assemble_stiffness([group.index for group in kernels], stiffness, dofmap)
    asym = (full - full.T).tocoo()
    max_asym = np.abs(asym.data).max() if asym.nnz else 0.0
    assert max_asym == 0.0


def test_assembly_order_independent(mesh_cache):
    mesh = mesh_cache("randomquad", 0)
    kernels, stiffness = build_local_kernels(mesh, 3, DEFAULT_MATERIAL)
    dofmap = global_dof_map(mesh, 3)
    a1 = assemble_stiffness([group.index for group in kernels], stiffness, dofmap)

    views = cell_views(mesh, 3)
    order = np.random.default_rng(0).permutation(mesh.n_cells)
    rows, cols, vals = [], [], []
    for c in order:
        idx = views[c].dofs
        grid = np.meshgrid(idx, idx, indexing="ij")
        rows.append(grid[0].ravel())
        cols.append(grid[1].ravel())
        vals.append(views[c].stiffness.ravel())
    a2 = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dofmap.n_total, dofmap.n_total),
    ).tocsr()
    diff = (a1 - a2).tocoo()
    scale = np.abs(a1.data).max()
    assert (np.abs(diff.data).max() if diff.nnz else 0.0) <= 1e-15 * scale


def assert_scatter_matches_transposition(mesh, order):
    kernels, stiffness = build_local_kernels(mesh, order, DEFAULT_MATERIAL)
    dofmap = global_dof_map(mesh, order)
    cells = [group.index for group in kernels]
    got = assemble_stiffness(cells, stiffness, dofmap)
    want = transposed_stiffness(cells, stiffness, dofmap)
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("order", [2, 3, 4, 5])
@pytest.mark.parametrize("family", ["crisscross", "hexagonal", "octagonal", "randomquad"])
def test_scatter_matches_transposition(family, order, mesh_cache):
    """The row gather gives bitwise the matrix of the transposition route,
    at n = 0-2; the hexagonal meshes mix vertex counts."""
    for n in (0, 1, 2):
        mesh = mesh_cache(family, n)
        assert family != "hexagonal" or len(mesh.group_index()) > 1
        assert_scatter_matches_transposition(mesh, order)


def test_scatter_matches_transposition_on_corpus(small_corpus):
    for mesh in small_corpus:
        for order in (2, 3, 4, 5):
            assert_scatter_matches_transposition(mesh, order)


def test_stiffness_pattern_is_union_of_cell_patterns(mesh_cache):
    """Entries whose cell contributions cancel stay stored: the pattern is
    structural. At order 3 on crisscross n = 1, 202 entries sum to 0.0."""
    mesh = mesh_cache("crisscross", 1)
    kernels, stiffness = build_local_kernels(mesh, 3, DEFAULT_MATERIAL)
    dofmap = global_dof_map(mesh, 3)
    full = assemble_stiffness([group.index for group in kernels], stiffness, dofmap)
    dofs = [view.dofs for view in cell_views(mesh, 3)]
    cells = np.repeat(np.arange(mesh.n_cells), [len(d) for d in dofs])
    incidence = sp.csr_matrix((np.ones(len(cells)), (np.concatenate(dofs), cells)))
    pattern = (incidence @ incidence.T).tocsr()
    pattern.sort_indices()
    full.sort_indices()
    assert np.count_nonzero(full.data == 0.0) > 0
    assert np.array_equal(full.indptr, pattern.indptr)
    assert np.array_equal(full.indices, pattern.indices)


def test_solver_builds_and_loads_each_cell_once(mesh_cache, monkeypatch):
    """The benchmark's traced pass counts cells by vertex count through
    ``local.build_cell_kernels``, reading ``n_vertices`` off the first
    positional argument, the cell's group (the second is its row there),
    and per-cell loads through ``assembly.local_load``: a solver calls the
    first once per cell, and each load the second."""
    mesh = mesh_cache("hexagonal", 1)
    built, loaded = [], []
    build, load = local.build_cell_kernels, assembly.local_load

    def counting_build(*args, **kwargs):
        built.append(args[:2])
        return build(*args, **kwargs)

    def counting_load(kern, f):
        loaded.append(int(kern.group.index[kern.k]))
        return load(kern, f)

    monkeypatch.setattr(local, "build_cell_kernels", counting_build)
    monkeypatch.setattr(assembly, "local_load", counting_load)
    solver = PlateSolver(mesh, 3, DEFAULT_MATERIAL)
    assert all(isinstance(group, CellGroup) for group, _ in built)
    assert sorted(int(group.index[k]) for group, k in built) == list(range(mesh.n_cells))
    by_nverts = Counter(group.n_vertices for group, _ in built)
    assert by_nverts == Counter(mesh.cells.lengths.tolist())
    assert len(by_nverts) > 1
    for _ in range(2):
        loaded.clear()
        solver.solve(manufactured.load(DEFAULT_MATERIAL), BoundarySpec.clamped())
        assert sorted(loaded) == list(range(mesh.n_cells))


@pytest.mark.parametrize("family", ["crisscross", "hexagonal", "octagonal", "randomquad"])
def test_free_block_is_its_own_transpose(family, mesh_cache):
    """The fronts read the free block's columns off its CSR rows, which is
    the block only where it is exactly symmetric: so it is. The system's
    1-norm is the block's."""
    mesh = mesh_cache(family, 0)
    for order in (2, 3, 4, 5):
        solver = PlateSolver(mesh, order, DEFAULT_MATERIAL)
        block = free_block(solver)
        assert (block != block.T).nnz == 0, order
        solver.solve(manufactured.load(DEFAULT_MATERIAL), BoundarySpec.clamped())
        assert solver.norm_1 == pytest.approx(spla.norm(block, 1), rel=1e-14)


def test_norm_1_skips_empty_columns():
    """Empty columns of the free block, first, inside and last, add nothing
    to the sums, and neither do the constrained columns of its rows."""
    block = np.zeros((5, 5))
    block[1, 1], block[1, 3], block[3, 3] = 1.0, -4.0, 0.5
    block[3, 1] = block[1, 3]
    full = np.zeros((7, 7))
    free = np.arange(1, 6)
    full[np.ix_(free, free)] = block
    full[[0, 0, 6], [1, 3, 3]] = full[[1, 3, 3], [0, 0, 6]] = [9.0, -7.0, 3.0]
    matrix = sp.csr_matrix(full)
    assert assembly._norm_1(matrix, free) == spla.norm(sp.csc_matrix(block), 1) == 5.0
    assert assembly._norm_1(sp.csr_matrix((3, 3)), np.arange(3)) == 0.0


@pytest.mark.parametrize(
    "family, n, order, seed",
    [("randomquad", 4, 2, 1), ("octagonal", 2, 5, 0), ("hexagonal", 2, 3, 0)],
)
def test_factor_of_transposed_block_matches_copy(family, n, order, seed, mesh_cache):
    """On the benchmark's meshes, the solver's factor has the ordering and
    fill of factoring an independent copy of its matrix and numbering."""
    solver = PlateSolver(mesh_cache(family, n, seed), order, DEFAULT_MATERIAL)
    solver.solve(manufactured.load(DEFAULT_MATERIAL), BoundarySpec.clamped())
    copy = independent_system(solver)
    factor = factor_spd(copy.matrix, copy.free, copy.dofmap)
    assert np.array_equal(copy.free, solver.free)
    assert solver.factor.nnz == factor.nnz
    assert np.array_equal(solver.factor.tree.perm, factor.tree.perm)
    assert solver.norm_1 == copy.norm_1


def independent_system(solver):
    """A :class:`PlateSystem` over a copy of the solver's matrix and a
    numbering of its own."""
    return PlateSystem(solver.matrix.copy(), global_dof_map(solver.mesh, solver.order))


def reference_solve(solver, oracle, f, bc):
    """The solve of a solver that kept its free block: an independent copy
    (``oracle``) factored and refined on its own, the strong data coupled
    through the constrained columns of the free rows."""
    load = assembly.assemble_load(solver.mesh, solver.kernels, solver.dofmap, f)
    vals = boundary_values(solver.mesh, solver.dofmap, bc)[solver.constrained]
    rhs = load[solver.free]
    if np.any(vals):
        rhs = rhs - solver.matrix[solver.free][:, solver.constrained] @ vals
    x, steps = oracle.solve_free(rhs)
    full = np.zeros(solver.n_dofs)
    full[solver.free] = x
    full[solver.constrained] = vals
    return full, steps


@pytest.mark.parametrize(
    "family, n, order, seed",
    [("randomquad", 4, 2, 1), ("octagonal", 2, 5, 0), ("hexagonal", 2, 3, 0)],
)
def test_solutions_match_factored_block_copy(family, n, order, seed, mesh_cache):
    """On the benchmark's meshes the solutions and refinement steps are
    bitwise those of factoring and refining against an independent copy of
    the matrix, for the clamped manufactured load and a cubic with strong
    data."""
    solver = PlateSolver(mesh_cache(family, n, seed), order, DEFAULT_MATERIAL)
    u, grad, f_cubic = manufactured.monomial_solution(1, 2, DEFAULT_MATERIAL)
    problems = [
        (manufactured.load(DEFAULT_MATERIAL), BoundarySpec.clamped()),
        (f_cubic, BoundarySpec.dirichlet(u, grad)),
    ]
    oracle = independent_system(solver)
    for f, bc in problems:
        got = solver.solve(f, bc)
        expected, steps = reference_solve(solver, oracle, f, bc)
        assert np.array_equal(got, expected)
        assert solver.refine_steps == steps


@pytest.mark.parametrize("family", ["crisscross", "hexagonal", "octagonal", "randomquad"])
def test_refinement_product_is_the_blocks(family, mesh_cache):
    """The refinement's product, read off the full matrix, is bitwise the
    free block's own."""
    rng = np.random.default_rng(7)
    for order in (2, 5):
        solver = PlateSolver(mesh_cache(family, 1), order, DEFAULT_MATERIAL)
        block = free_block(solver)
        for _ in range(3):
            x = rng.uniform(-1, 1, len(solver.free))
            assert np.array_equal(solver.product(x), block @ x), order


def test_solver_keeps_one_sparse_matrix(mesh_cache):
    """The free block is never kept: after the first solve neither the
    solver nor its factor holds a sparse matrix besides ``solver.matrix``.
    Order 5 on 400 octagons peaked at 122.3 MiB (tracemalloc) while the
    solver kept the block, at 83.8 MiB without it under SuperLU, and at
    78.4 MiB with the multifrontal Cholesky factor."""
    mesh = mesh_cache("octagonal", 2)
    f = manufactured.load(DEFAULT_MATERIAL)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        solver = PlateSolver(mesh, 5, DEFAULT_MATERIAL)
        solver.solve(f, BoundarySpec.clamped())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    held = [
        name
        for owner in (solver, solver.factor)
        for name, value in vars(owner).items()
        if sp.issparse(value) and value is not solver.matrix
    ]
    assert not held
    assert peak / 2**20 <= 95.0


def test_zero_load_gives_zero_solution(mesh_cache):
    solver = PlateSolver(mesh_cache("hexagonal", 0), 2, DEFAULT_MATERIAL)
    solution = solver.solve(zero_f, BoundarySpec.clamped())
    assert np.abs(solution).max() == 0.0


@pytest.mark.parametrize("family, order", [("crisscross", 4), ("octagonal", 5), ("randomquad", 2)])
def test_zero_rhs_solves_to_zeros_without_refinement(family, order, mesh_cache):
    """A zero right-hand side substitutes to +0.0 everywhere, and its
    backward error reads 0 although residual and denominator are both 0."""
    solver = PlateSolver(mesh_cache(family, 1), order, DEFAULT_MATERIAL)
    x, steps = solver.solve_free(np.zeros(len(solver.free)))
    assert np.array_equal(x, np.zeros(len(solver.free)))
    assert not np.signbit(x).any()
    assert steps == 0


def test_solve_recovers_random_vector(mesh_cache):
    solver = PlateSolver(mesh_cache("crisscross", 0), 2, DEFAULT_MATERIAL)
    matrix = free_block(solver)
    rng = np.random.default_rng(4)
    x0 = rng.uniform(-1, 1, matrix.shape[0])
    got, _ = solver.solve_free(matrix @ x0)
    assert np.linalg.norm(got - x0) <= 1e-8 * np.linalg.norm(x0)


@pytest.mark.parametrize(
    "family, n", [("crisscross", 0), ("hexagonal", 1), ("octagonal", 0), ("randomquad", 1)]
)
def test_solutions_independent_of_rigidity_scale(family, n, mesh_cache):
    """Stiffness and loads scale with the rigidity; at a power of 4 the
    Cholesky factor scales by its exact square root, so the clamped and
    Dirichlet solutions and their refinement steps are bitwise those at
    rigidity 1, however far the scale is from 1."""
    mesh = mesh_cache(family, n)

    def run(rigidity):
        material = MaterialParams(rigidity, 0.3)
        solver = PlateSolver(mesh, 3, material)
        u, grad, f_cubic = manufactured.monomial_solution(1, 2, material)
        problems = [
            (manufactured.load(material), BoundarySpec.clamped()),
            (f_cubic, BoundarySpec.dirichlet(u, grad)),
        ]
        return [(solver.solve(f, bc), solver.refine_steps) for f, bc in problems]

    want = run(1.0)
    for rigidity in (4.0**-300, 4.0**300):
        for (got, steps), (expected, expected_steps) in zip(run(rigidity), want):
            assert np.array_equal(got, expected)
            assert steps == expected_steps


def test_non_finite_stiffness_is_assembly_error(mesh_cache):
    solver = PlateSolver(mesh_cache("crisscross", 0), 2, DEFAULT_MATERIAL)
    matrix = solver.matrix.copy()
    matrix.data[0] = np.inf
    with pytest.raises(AssemblyError, match="stiffness matrix has non-finite entries"):
        PlateSystem(matrix, solver.dofmap)


def test_nan_backward_error_is_not_converged(mesh_cache):
    """A backward error that is NaN fails the tolerance, as one above it does."""
    solver = PlateSolver(mesh_cache("crisscross", 0), 2, DEFAULT_MATERIAL)
    solver.norm_1 = np.nan
    with pytest.raises(SolverError, match="backward error nan"):
        solver.solve(manufactured.load(DEFAULT_MATERIAL), BoundarySpec.clamped())


def test_unconstrained_system_rejected(mesh_cache):
    # without boundary elimination the matrix keeps its 3-dim kernel,
    # which the solver must report as a distinct failure
    mesh = mesh_cache("crisscross", 0)
    kernels, stiffness = build_local_kernels(mesh, 2, DEFAULT_MATERIAL)
    dofmap = global_dof_map(mesh, 2)
    full = assemble_stiffness([group.index for group in kernels], stiffness, dofmap).tocsr()
    with pytest.raises(SolverError):
        factor_spd(full, np.arange(dofmap.n_total), dofmap)


def test_negated_free_block_rejected(mesh_cache):
    # negative definite: the Cholesky factorization stops at its first
    # pivot, which is negative
    solver = PlateSolver(mesh_cache("octagonal", 0), 3, DEFAULT_MATERIAL)
    with pytest.raises(SolverError, match="negative pivots"):
        factor_spd(-solver.matrix, solver.free, solver.dofmap)


def test_factor_is_symmetric_and_sparser(mesh_cache):
    """The solver's factor is symmetric, L Lᵀ of the permuted free block,
    and its L fills less than default splu's L + U."""
    solver = PlateSolver(mesh_cache("octagonal", 0), 5, DEFAULT_MATERIAL)
    solver.solve(manufactured.load(DEFAULT_MATERIAL), BoundarySpec.clamped())
    lower, stored = dense_lower(solver.factor)
    perm = solver.factor.tree.perm
    block = free_block(solver)[perm][:, perm].toarray()
    assert np.abs(lower @ lower.T - block).max() <= 1e-12 * np.abs(block).max()
    assert solver.factor.nnz == np.count_nonzero(stored)
    assert solver.factor.nnz < spla.splu(free_block(solver).tocsc()).nnz


def test_singular_free_block_rejected_on_every_solve(mesh_cache, monkeypatch):
    # with nothing constrained the free block keeps the 3-dim kernel; the
    # factor cached by a failed first solve must not let a second one pass
    monkeypatch.setattr(
        assembly.GlobalDofMap,
        "boundary_mask",
        property(lambda self: np.zeros(self.n_total, dtype=bool)),
    )
    solver = PlateSolver(mesh_cache("crisscross", 0), 2, DEFAULT_MATERIAL)
    f = manufactured.load(DEFAULT_MATERIAL)
    for _ in range(2):
        with pytest.raises(SolverError):
            solver.solve(f, BoundarySpec.clamped())


@pytest.mark.parametrize("family", ["crisscross", "octagonal"])
@pytest.mark.parametrize("order", [2, 3])
def test_patch_solution_matches_interpolant(family, order, mesh_cache):
    """Strong-data polynomial solutions reproduce the interpolant unknowns."""
    mesh = mesh_cache(family, 0)
    solver = PlateSolver(mesh, order, DEFAULT_MATERIAL)
    u, grad, f = manufactured.monomial_solution(order, 0, DEFAULT_MATERIAL)
    solution = solver.solve(f, BoundarySpec.dirichlet(u, grad))
    expected = interpolate(solver.dofmap, u, grad)
    scale = np.abs(expected).max()
    assert np.abs(solution - expected).max() <= 1e-9 * scale


def test_shared_edge_normal_moments_opposite(mesh_cache):
    """The normal-moment functional flips sign across a shared edge.

    Evaluating int_e (grad w . n) t^k with each cell's own outward normal
    must produce opposite values, the discrete form of the jump condition.
    The one global value, turned to each cell's outward normal by the cell's
    edge sign, must match that cell's own edge-by-edge reference.
    """
    mesh = mesh_cache("randomquad", 0)
    interior = np.flatnonzero(~mesh.edge_is_boundary)[0]
    c0, c1 = mesh.edge_cells[interior]
    w = manufactured.displacement
    gw = manufactured.gradient
    dofmap = global_dof_map(mesh, 3)
    normal, _ = dofmap.edge_dofs([interior])
    shared = interpolate(dofmap, w, gw)[normal[0]]
    vals = []
    for c in (c0, c1):
        frame = cell_frame(mesh, c)
        local_edge = list(frame.edge_ids).index(interior)
        dofs = reference_cell_dofs(frame, 3, w, gw)
        layout_slice = edge_normal_slice(local.DofLayout(3, frame.n_vertices), local_edge)
        sign = frame.edge_signs[local_edge]
        vals.append(sign * dofs[layout_slice])
        assert np.allclose(sign * shared, vals[-1], rtol=1e-12, atol=1e-14)
    assert np.allclose(vals[0], -vals[1], rtol=1e-12, atol=1e-14)


def _relative(got, ref) -> float:
    return np.abs(got - ref).max() / max(np.abs(ref).max(), 1e-300)


@pytest.mark.parametrize(
    "family", ["crisscross", "hexagonal", "octagonal", "randomquad", "corpus"]
)
def test_interpolation_matches_cellwise_reference(family, mesh_cache, small_corpus):
    """Each unknown computed once agrees with the cell-by-cell reference.

    Interpolant of the reference displacement, strong boundary data of a
    monomial and the projected exact solution, on the families at n = 0, 1
    and on the one-cell corpus, orders 2 to 5.
    """
    if family == "corpus":
        meshes = small_corpus
    else:
        meshes = [mesh_cache(family, n) for n in (0, 1)]
    w, gw = manufactured.displacement, manufactured.gradient
    for mesh in meshes:
        for order in (2, 3, 4, 5):
            kernels, _ = build_local_kernels(mesh, order, DEFAULT_MATERIAL)
            views = cell_views(mesh, order)
            dofmap = global_dof_map(mesh, order)
            cellwise = [reference_cell_dofs(v.frame, order, w, gw) for v in views]
            ref = np.empty(dofmap.n_total)
            for view, dofs in zip(views, cellwise):
                ref[view.dofs] = dofs
            assert _relative(interpolate(dofmap, w, gw), ref) <= 1e-14, (mesh.n_cells, order)

            coeffs = cv.project_exact(mesh, kernels, w, gw)
            ref_coeffs = np.array([v.pi @ d for v, d in zip(views, cellwise)])
            assert _relative(coeffs, ref_coeffs) <= 1e-10, (mesh.n_cells, order)

            u, gu, _ = manufactured.monomial_solution(order, 1, DEFAULT_MATERIAL)
            bc = BoundarySpec.dirichlet(u, gu)
            mask = dofmap.boundary_mask
            ref_u = np.empty(dofmap.n_total)
            for view in views:
                ref_u[view.dofs] = reference_cell_dofs(view.frame, order, u, gu)
            values = boundary_values(mesh, dofmap, bc)
            assert np.abs(values[~mask]).max(initial=0.0) == 0.0
            assert _relative(values[mask], ref_u[mask]) <= 1e-14, (mesh.n_cells, order)


@pytest.mark.parametrize("family", ["crisscross", "hexagonal", "octagonal", "randomquad"])
def test_interpolation_bitwise_matches_point_mapping(family, mesh_cache):
    """The interior unknowns of an interpolant, from coordinate-major fan
    rules and monomial rows, are bitwise those of the point-major mapping
    with monomials on a trailing axis, at orders 4 and 5, for polynomial and
    transcendental data. Every family at n = 1 has a group larger than one
    chunk and not a multiple of it."""
    mesh = mesh_cache(family, 1)
    sizes = np.bincount(mesh.cells.lengths)
    assert sizes.max() > local.MOMENT_CHUNK and sizes.max() % local.MOMENT_CHUNK

    def wave(x, y):
        return np.sin(3.0 * x) * np.exp(y)

    def wave_gradient(x, y):
        return 3.0 * np.cos(3.0 * x) * np.exp(y), wave(x, y)

    for w, gw in ((manufactured.displacement, manufactured.gradient), (wave, wave_gradient)):
        for order in (4, 5):
            dofmap = global_dof_map(mesh, order)
            interior = interpolate(dofmap, w, gw)[dofmap.offsets[3] :]
            assert np.array_equal(interior, point_interior_moments(mesh, order, w).ravel()), order


def mesh_state(mesh) -> dict:
    """Identity and size of every array a mesh holds, its row tables' included."""
    state = {}
    for name, value in vars(mesh).items():
        parts = vars(value) if isinstance(value, CellRows) else {"": value}
        for part, array in parts.items():
            state[name, part] = (id(array), array.nbytes)
    return state


def test_solve_adds_no_state_to_the_mesh():
    """The benchmark keeps every set-up's mesh, so a cache hung on it would
    grow with every set-up: a solver, two solves and the exact solution's
    projection leave the mesh's attributes and arrays as they were."""
    mesh = build_family("octagonal", 1)
    before = mesh_state(mesh)
    solver = PlateSolver(mesh, 4, DEFAULT_MATERIAL)
    for _ in range(2):
        solver.solve(manufactured.load(DEFAULT_MATERIAL), BoundarySpec.clamped())
    cv.project_exact(mesh, solver.kernels, manufactured.displacement, manufactured.gradient)
    assert mesh_state(mesh) == before


def test_one_cell_numbering_is_local_layout(small_corpus):
    """On a one-cell mesh the global unknowns are the local layout."""
    for mesh in small_corpus:
        for order in (2, 3, 4, 5):
            n_local = local.DofLayout(order, cell_frame(mesh, 0).n_vertices).n_total
            dofmap = global_dof_map(mesh, order)
            assert dofmap.n_total == n_local
            assert np.array_equal(dofmap.group_dofs([0])[0], np.arange(n_local))


def test_boundary_values_clamped_are_zero(mesh_cache):
    mesh = mesh_cache("crisscross", 0)
    dofmap = global_dof_map(mesh, 3)
    values = boundary_values(mesh, dofmap, BoundarySpec.clamped())
    assert np.abs(values).max() == 0.0


def test_boundary_spec_validation():
    with pytest.raises(AssemblyError):
        BoundarySpec.dirichlet(None, None)


def test_dump_matrix_roundtrip(tmp_path, mesh_cache):
    mesh = mesh_cache("randomquad", 0)
    kernels, stiffness = build_local_kernels(mesh, 2, DEFAULT_MATERIAL)
    dofmap = global_dof_map(mesh, 2)
    full = assemble_stiffness([group.index for group in kernels], stiffness, dofmap)
    path = tmp_path / "matrix.txt"
    dump_matrix(full, path)
    rows, cols, vals = [], [], []
    for line in path.read_text().splitlines():
        r, c, v = line.split()
        rows.append(int(r))
        cols.append(int(c))
        vals.append(float(v))
    back = sp.coo_matrix((vals, (rows, cols)), shape=full.shape).tocsr()
    diff = (back - full).tocoo()
    assert (np.abs(diff.data).max() if diff.nnz else 0.0) == 0.0


def test_global_dof_counts_match_tables(mesh_cache):
    for family in ("crisscross", "hexagonal", "octagonal", "randomquad"):
        table = BY_FAMILY[family]
        for n in (0, 1):
            mesh = mesh_cache(family, n)
            for col, order in enumerate((2, 3, 4, 5), start=3):
                expected = table[n][col]
                assert global_dof_map(mesh, order).n_total == expected


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_inputs_blamed_on_the_data(bad, mesh_cache):
    """A load or strong boundary data that is not finite is an assembly
    error, raised before the free block is factored; a good solve of the
    same solver then runs as usual."""
    solver = PlateSolver(mesh_cache("crisscross", 0), 3, DEFAULT_MATERIAL)
    u, grad, f_cubic = manufactured.monomial_solution(1, 2, DEFAULT_MATERIAL)

    def bad_f(x, y):
        return np.full_like(np.asarray(x, dtype=float), bad)

    def bad_u(x, y):
        return u(x, y) + bad

    cases = [
        (bad_f, BoundarySpec.clamped(), "the load has non-finite values"),
        (f_cubic, BoundarySpec.dirichlet(bad_u, grad), "the boundary data has non-finite values"),
    ]
    for f, bc, message in cases:
        with np.errstate(invalid="ignore"), pytest.raises(AssemblyError, match=message):
            solver.solve(f, bc)
        assert solver.factor is None
    solution = solver.solve(f_cubic, BoundarySpec.dirichlet(u, grad))
    assert solver.factor is not None
    assert cv.measured_error(solver, solution, u, grad) <= 1e-8
