import numpy as np
import pytest

from platevem import assembly, manufactured, morley
from platevem.assembly import (
    BoundarySpec,
    PlateSolver,
    SolverError,
    assemble_stiffness,
    global_dof_map,
)
from platevem.plate import DEFAULT_MATERIAL
from platevem.quadrature import polygon_rule

from conftest import cell_views, group_stabilization
from oracles import coo_stiffness, morley_error_2h, morley_interpolation_dofs

REF_TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def test_dof_matrix_nonsingular():
    mat = morley.morley_dof_matrix(REF_TRIANGLE)
    assert np.linalg.matrix_rank(mat) == 6


def test_stiffness_annihilates_linears():
    stiff = morley.morley_local_stiffness(REF_TRIANGLE, DEFAULT_MATERIAL)
    w = lambda x, y: 1.0 + 2.0 * x - 0.7 * y
    gw = lambda x, y: (2.0 * np.ones_like(x), -0.7 * np.ones_like(x))
    dofs = morley_interpolation_dofs(
        REF_TRIANGLE, np.array([0, 1, 2]), w, gw
    )
    assert np.abs(stiff @ dofs).max() <= 1e-12 * np.abs(stiff).max()


def test_stiffness_degenerate_triangle_rejected():
    flat = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(morley.MorleyError):
        morley.morley_local_stiffness(flat, DEFAULT_MATERIAL)


def test_stiffness_matches_quadrature_oracle():
    """Closed-form element energy against a dense quadrature assembly."""
    ids = np.array([0, 1, 2])
    stiff = morley.morley_local_stiffness(REF_TRIANGLE, DEFAULT_MATERIAL, ids)
    dof = morley.morley_dof_matrix(REF_TRIANGLE, ids)
    inv = np.linalg.inv(dof)
    center = REF_TRIANGLE.mean(axis=0)
    rule = polygon_rule(REF_TRIANGLE, center, 4)
    x = rule.points[:, 0] - center[0]
    y = rule.points[:, 1] - center[1]
    zeros = np.zeros_like(x)
    dxx = np.column_stack([zeros, zeros, zeros, 2 * np.ones_like(x), zeros, zeros])
    dxy = np.column_stack([zeros, zeros, zeros, zeros, np.ones_like(x), zeros])
    dyy = np.column_stack([zeros, zeros, zeros, zeros, zeros, 2 * np.ones_like(x)])
    nu = DEFAULT_MATERIAL.poisson
    w = rule.weights[:, None]
    lap = dxx + dyy
    energy = DEFAULT_MATERIAL.rigidity * (
        nu * lap.T @ (w * lap)
        + (1 - nu) * (dxx.T @ (w * dxx) + 2 * dxy.T @ (w * dxy) + dyy.T @ (w * dyy))
    )
    oracle = inv.T @ energy @ inv
    assert np.trace(stiff) == pytest.approx(np.trace(oracle), rel=1e-12)
    assert np.abs(stiff - oracle).max() <= 1e-12 * np.abs(oracle).max()


def test_morley_equals_order2_kernels(mesh_cache):
    """The polygonal order-2 stiffness on triangles is the Morley stiffness."""
    mesh = mesh_cache("crisscross", 0)
    worst = 0.0
    for c, kern in enumerate(cell_views(mesh, 2)):
        oracle = morley.morley_local_stiffness(
            mesh.vertices[mesh.cells[c]], DEFAULT_MATERIAL, mesh.cells[c]
        )
        worst = max(worst, np.abs(kern.stiffness - oracle).max())
    worst_stab = max(np.abs(group_stabilization(g, 2)).max() for g in mesh.cell_groups())
    assert worst <= 1e-11
    assert worst_stab <= 1e-12


def test_morley_rejects_polygons(mesh_cache):
    with pytest.raises(morley.MorleyError):
        morley.morley_solve(
            mesh_cache("octagonal", 0), DEFAULT_MATERIAL, lambda x, y: x
        )


def test_morley_singular_system_rejected(mesh_cache, monkeypatch):
    # with nothing constrained the oracle's matrix keeps its 3-dim kernel;
    # the solve must raise instead of returning a huge vector
    monkeypatch.setattr(
        assembly.GlobalDofMap,
        "boundary_mask",
        property(lambda self: np.zeros(self.n_total, dtype=bool)),
    )
    f = manufactured.load(DEFAULT_MATERIAL)
    with pytest.raises(SolverError):
        morley.morley_solve(mesh_cache("crisscross", 0), DEFAULT_MATERIAL, f)


def test_oracle_free_block_is_exactly_symmetric(mesh_cache, monkeypatch):
    """``factor_spd`` reads the oracle's free block off its CSR rows, which
    is the block only where it is exactly symmetric: so it is on the
    criss-cross meshes, the one triangular family."""
    seen = []
    factor_spd = assembly.factor_spd

    def capturing(matrix, free, dofmap):
        seen.append((matrix, free))
        return factor_spd(matrix, free, dofmap)

    monkeypatch.setattr(assembly, "factor_spd", capturing)
    f = manufactured.load(DEFAULT_MATERIAL)
    for n in (0, 1, 2):
        seen.clear()
        morley.morley_solve(mesh_cache("crisscross", n), DEFAULT_MATERIAL, f)
        ((matrix, free),) = seen
        block = matrix[free][:, free]
        assert block.nnz > 0
        assert (block != block.T).nnz == 0, n


def test_oracle_scatter_matches_coordinate_format(mesh_cache):
    """The row gather of the oracle's (n_cells, 6, 6) stack gives bitwise
    the matrix of SciPy's coordinate-format conversion, at n = 0-2."""
    for n in (0, 1, 2):
        mesh = mesh_cache("crisscross", n)
        dofmap = global_dof_map(mesh, 2)
        cells = [np.arange(mesh.n_cells)]
        stiffness = [
            np.array(
                [
                    morley.morley_local_stiffness(mesh.vertices[ids], DEFAULT_MATERIAL, ids)
                    for ids in mesh.cells
                ]
            )
        ]
        got = assemble_stiffness(cells, stiffness, dofmap)
        want = coo_stiffness(cells, stiffness, dofmap)
        for name in ("data", "indices", "indptr"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (n, name)


def test_quadratic_patch():
    from platevem.generators import build_criss_cross

    mesh = build_criss_cross(0)
    u, grad, f = manufactured.monomial_solution(1, 1, DEFAULT_MATERIAL)
    bc = BoundarySpec.dirichlet(u, grad)
    solution, dofmap = morley.morley_solve(mesh, DEFAULT_MATERIAL, f, bc)
    err = morley_error_2h(mesh, dofmap, solution, u, grad)
    assert err <= 1e-10


def test_solution_matches_order2_method(mesh_cache):
    """Same unknowns from the oracle and the polygonal method at order 2."""
    for n in (0, 1):
        mesh = mesh_cache("crisscross", n)
        f = manufactured.load(DEFAULT_MATERIAL)
        solver = PlateSolver(mesh, 2, DEFAULT_MATERIAL)
        vem = solver.solve(f, BoundarySpec.clamped())
        oracle, _ = morley.morley_solve(mesh, DEFAULT_MATERIAL, f)
        scale = np.abs(vem).max()
        assert np.abs(vem - oracle).max() <= 1e-9 * scale


@pytest.mark.slow
def test_oracle_convergence_rate(mesh_cache):
    errors, hs = [], []
    f = manufactured.load(DEFAULT_MATERIAL)
    for n in range(4):
        mesh = mesh_cache("crisscross", n)
        solution, dofmap = morley.morley_solve(mesh, DEFAULT_MATERIAL, f)
        errors.append(
            morley_error_2h(
                mesh, dofmap, solution, manufactured.displacement, manufactured.gradient
            )
        )
        hs.append(mesh.h)
    rate = np.polyfit(np.log(hs), np.log(errors), 1)[0]
    assert 0.8 <= rate <= 1.25
