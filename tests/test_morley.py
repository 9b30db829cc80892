import ast
from pathlib import Path

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
# the reference triangle as a stack of one, with its vertex ids
REF_STACK = REF_TRIANGLE[None]
REF_IDS = np.array([[0, 1, 2]])


def local_stiffness(vertices, ids):
    return morley.morley_local_stiffness(
        vertices, morley.morley_basis(vertices, ids), DEFAULT_MATERIAL
    )


def mesh_stiffness(mesh):
    """The oracle's (n_cells, 6, 6) stiffness stack of a triangular mesh."""
    ids = mesh.cells.stack(np.arange(mesh.n_cells))
    return local_stiffness(mesh.vertices[ids], ids)


def test_dof_matrix_nonsingular():
    (mat,) = morley.morley_dof_matrix(REF_STACK, REF_IDS)
    assert np.linalg.matrix_rank(mat) == 6


def test_stiffness_annihilates_linears():
    (stiff,) = local_stiffness(REF_STACK, REF_IDS)
    w = lambda x, y: 1.0 + 2.0 * x - 0.7 * y
    gw = lambda x, y: (2.0 * np.ones_like(x), -0.7 * np.ones_like(x))
    (dofs,) = morley_interpolation_dofs(REF_STACK, REF_IDS, w, gw)
    assert np.abs(stiff @ dofs).max() <= 1e-12 * np.abs(stiff).max()


def test_stiffness_degenerate_triangle_rejected():
    flat = np.array([[[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]])
    with pytest.raises(morley.MorleyError):
        local_stiffness(flat, REF_IDS)


def test_bad_triangle_is_named(monkeypatch):
    """A flat or clockwise triangle is named by its place in the stack; an
    unknown matrix singular in floating point (a triangle of size 1e-160,
    whose area is still positive) is named too, and an exactly singular
    one raises MorleyError, not LinAlgError."""
    flat = [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]
    stack = np.array([REF_TRIANGLE, REF_TRIANGLE + 2.0, flat])
    ids = np.arange(9).reshape(3, 3)
    with pytest.raises(morley.MorleyError, match="^cell 2: degenerate or negatively oriented"):
        morley.morley_basis(stack, ids)
    clockwise = np.array([REF_TRIANGLE, REF_TRIANGLE[::-1]])
    with pytest.raises(morley.MorleyError, match="^cell 1: degenerate or negatively oriented"):
        morley.morley_basis(clockwise, ids[:2])
    tiny = np.array([REF_TRIANGLE, 1e-160 * REF_TRIANGLE])
    with pytest.raises(morley.MorleyError, match="^cell 1: singular unknown matrix"):
        morley.morley_basis(tiny, ids[:2])
    monkeypatch.setattr(morley, "morley_dof_matrix", lambda v, i: np.zeros((len(v), 6, 6)))
    with pytest.raises(morley.MorleyError, match="singular unknown matrix"):
        morley.morley_basis(REF_STACK, REF_IDS)


def test_stiffness_matches_quadrature_oracle():
    """Closed-form element energy against a dense quadrature assembly."""
    (stiff,) = local_stiffness(REF_STACK, REF_IDS)
    (dof,) = morley.morley_dof_matrix(REF_STACK, REF_IDS)
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
    oracle = mesh_stiffness(mesh)
    for c, kern in enumerate(cell_views(mesh, 2)):
        worst = max(worst, np.abs(kern.stiffness - oracle[c]).max())
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
        stiffness = [mesh_stiffness(mesh)]
        got = assemble_stiffness(cells, stiffness, dofmap)
        want = coo_stiffness(cells, stiffness, dofmap)
        for name in ("data", "indices", "indptr"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (n, name)


def test_oracle_imports_no_vem_kernels():
    """The oracle stays independent of the polygonal method: it shares only
    the numbering, the scatter and the reduced solve."""
    tree = ast.parse(Path(morley.__file__).read_text())
    names = set()  # every imported module or name, fully qualified
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["platevem" if node.level else "", node.module]))
            names.update(f"{module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
    kernels = ("platevem.local", "platevem.polynomials", "platevem.quadrature")
    assert not [name for name in names if name.startswith(kernels)]
    shared = {name for name in names if name.startswith("platevem.assembly")}
    allowed = ("BoundarySpec", "PlateSystem", "assemble_stiffness", "global_dof_map")
    assert shared == {f"platevem.assembly.{name}" for name in allowed}


def test_one_unknown_matrix_stack_per_solve(mesh_cache, monkeypatch):
    """The solve and the error oracle each build the (n_cells, 6, 6) unknown
    matrices once, for all triangles at once."""
    calls = []
    build = morley.morley_dof_matrix

    def counting(vertices, vertex_ids):
        calls.append(len(vertices))
        return build(vertices, vertex_ids)

    monkeypatch.setattr(morley, "morley_dof_matrix", counting)
    mesh = mesh_cache("crisscross", 1)
    f = manufactured.load(DEFAULT_MATERIAL)
    solution, dofmap = morley.morley_solve(mesh, DEFAULT_MATERIAL, f)
    assert calls == [mesh.n_cells]
    morley_error_2h(mesh, dofmap, solution, manufactured.displacement, manufactured.gradient)
    assert calls == [mesh.n_cells] * 2


def test_quadratic_patch():
    from platevem.generators import build_family

    mesh = build_family("crisscross", 0)
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
