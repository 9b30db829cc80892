import ast
import dataclasses
import re
import tracemalloc
from fractions import Fraction
from operator import mul
from pathlib import Path

import numpy as np
import pytest

from platevem import local, manufactured
from platevem.mesh import CellGroup, MeshError
from platevem.plate import DEFAULT_MATERIAL, MaterialParams
from platevem.polynomials import space_dim
from platevem.quadrature import polygon_rule

from conftest import (
    PERFBENCH,
    cell_dof_matrix,
    cell_group_basis,
    cell_interpolant,
    cell_kernels,
    cell_views,
    group_stabilization,
    load_module,
    polygon_corpus,
    reference_cell_dofs,
    single_cell_mesh,
)
from oracles import (
    ScaledMonomialBasis,
    cell_frame,
    edge_normal_slice,
    edge_value_slice,
    energy_gram,
    group_frame,
    hessian_seminorm_gram,
)

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
PENTAGON = np.array(
    [[0.0, 0.0], [1.0, 0.1], [1.2, 0.9], [0.5, 1.4], [-0.2, 0.8]]
)


def test_layout_counts():
    assert local.dof_layout(3, 2).n_total == 6
    assert local.dof_layout(4, 3).n_total == 16
    assert local.dof_layout(5, 4).n_total == 31
    assert local.dof_layout(8, 5).n_total == 8 + 8 * 4 + 8 * 3 + 3


def test_layout_rejects_low_order():
    with pytest.raises(ValueError):
        local.dof_layout(3, 1)


def test_layout_block_slices_partition():
    layout = local.dof_layout(5, 4)
    covered = list(range(layout.n_vertices))
    for i in range(5):
        covered.extend(range(layout.n_total)[edge_normal_slice(layout, i)])
    for i in range(5):
        covered.extend(range(layout.n_total)[edge_value_slice(layout, i)])
    covered.extend(range(layout.n_total)[layout.cell_slice])
    assert sorted(covered) == list(range(layout.n_total))


def test_compute_dofs_constant():
    mesh = single_cell_mesh(SQUARE)
    one = lambda x, y: np.ones_like(np.asarray(x, dtype=float))
    zero2 = lambda x, y: (np.zeros_like(x), np.zeros_like(x))
    dofs = cell_interpolant(mesh, 2, one, zero2)
    layout = local.dof_layout(4, 2)
    assert np.allclose(dofs[:4], 1.0)
    assert np.abs(dofs[4:]).max() == 0.0


def test_compute_dofs_normal_derivative_sign():
    # w = x on the left edge of the unit square: the global edge normal is
    # (-1, 0) there (lower vertex id at the bottom), giving integral -1
    mesh = single_cell_mesh(SQUARE)
    frame = cell_frame(mesh, 0)
    w = lambda x, y: np.asarray(x, dtype=float)
    gw = lambda x, y: (np.ones_like(x), np.zeros_like(x))
    dofs = cell_interpolant(mesh, 2, w, gw)
    layout = local.dof_layout(4, 2)
    left = 3  # local edge 3 joins vertices (0,1) and (0,0)
    normal = frame.normals[left]
    value = dofs[edge_normal_slice(layout, left)][0]
    assert value == pytest.approx(normal[0], rel=1e-13)
    assert abs(normal[0]) == 1.0


def test_compute_dofs_interior_moment():
    mesh = single_cell_mesh(SQUARE)
    w = lambda x, y: x**2 * y**2
    gw = lambda x, y: (2 * x * y**2, 2 * x**2 * y)
    dofs = cell_interpolant(mesh, 4, w, gw)
    layout = local.dof_layout(4, 4)
    assert dofs[layout.cell_slice][0] == pytest.approx(1.0 / 9.0, rel=1e-13)


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_unisolvence_on_polynomials(order, small_corpus):
    # the unknowns of the monomial basis must be linearly independent
    for mesh in small_corpus:
        dm = cell_dof_matrix(mesh, order)
        s = np.linalg.svd(dm, compute_uv=False)
        assert s.min() > 1e-10 * s.max()


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_projector_reproduces_polynomials(order, small_corpus):
    for mesh in small_corpus:
        pi = cell_kernels(mesh, order).pi
        dm = cell_dof_matrix(mesh, order)
        assert np.abs(pi @ dm - np.eye(dm.shape[1])).max() <= 1e-12


def test_projector_is_idempotent(small_corpus):
    for mesh in small_corpus[:6]:
        pi = cell_kernels(mesh, 3).pi
        dm = cell_dof_matrix(mesh, 3)
        assert np.abs(pi @ dm @ pi - pi).max() <= 1e-12 * max(np.abs(pi).max(), 1)


def test_projector_linear_exact():
    mesh = single_cell_mesh(PENTAGON)
    w = lambda x, y: 2.0 + 3.0 * x - y
    gw = lambda x, y: (3.0 * np.ones_like(x), -np.ones_like(x))
    dofs = cell_interpolant(mesh, 2, w, gw)
    kern = cell_kernels(mesh, 2)
    coeffs = kern.pi @ dofs
    pts = np.random.default_rng(0).uniform(0, 1, (5, 2))
    assert np.allclose(kern.element_values(pts) @ coeffs, w(pts[:, 0], pts[:, 1]), atol=1e-12)


def test_gram_rank_deficiency_three(small_corpus):
    for mesh in small_corpus[:6]:
        grams, _ = local.energy_grams(cell_group_basis(mesh, 3), DEFAULT_MATERIAL)
        s = np.linalg.svd(grams[0], compute_uv=False)
        assert int((s < 1e-10 * s.max()).sum()) == 3


def test_b_matrix_ignores_trace_moments_at_order_two(small_corpus):
    # effective shear of quadratics vanishes identically, so no order-2
    # pairing can touch trace unknowns (none exist in the layout either)
    mesh = small_corpus[0]
    layout = local.dof_layout(cell_frame(mesh, 0).n_vertices, 2)
    assert layout.n_edge_value == 0
    b = local.load_rows(cell_group_basis(mesh, 2), DEFAULT_MATERIAL)[0]
    assert b.shape[1] == layout.n_total


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_stiffness_consistency(order, small_corpus):
    """Local energy of polynomial data is reproduced exactly.

    dofs(p)^T K dofs(q) must equal the exact cell energy for all
    polynomials p, q up to the method order.
    """
    for mesh in small_corpus[:8]:
        frame = cell_frame(mesh, 0)
        kern = cell_kernels(mesh, order)
        dm = cell_dof_matrix(mesh, order)
        rule = polygon_rule(frame.vertices, frame.star, 2 * order)
        gram = kern.element_gram(energy_gram(kern.basis, rule, DEFAULT_MATERIAL))
        err = np.abs(dm.T @ kern.stiffness @ dm - gram).max()
        assert err <= 1e-11 * max(np.abs(gram).max(), 1.0)


def test_stiffness_kernel_dimension(small_corpus):
    for mesh in small_corpus[:8]:
        for order in (2, 4):
            kern = cell_kernels(mesh, order)
            w = np.linalg.eigvalsh(kern.stiffness)
            scale = np.abs(w).max()
            assert w.min() >= -1e-10 * scale
            assert int((w < 1e-8 * scale).sum()) == 3


def test_stiffness_annihilates_linears():
    mesh = single_cell_mesh(PENTAGON)
    kern = cell_kernels(mesh, 3)
    w = lambda x, y: 1.0 - 2.0 * x + 0.5 * y
    gw = lambda x, y: (-2.0 * np.ones_like(x), 0.5 * np.ones_like(x))
    dofs = cell_interpolant(mesh, 3, w, gw)
    out = kern.stiffness @ dofs
    assert np.abs(out).max() <= 1e-12 * np.abs(kern.stiffness).max()


def test_rayleigh_quotient_one_on_polynomials(small_corpus):
    rng = np.random.default_rng(11)
    for mesh in small_corpus[:6]:
        frame = cell_frame(mesh, 0)
        order = int(rng.integers(2, 6))
        kern = cell_kernels(mesh, order)
        dm = cell_dof_matrix(mesh, order)
        rule = polygon_rule(frame.vertices, frame.star, 2 * order)
        gram = kern.element_gram(energy_gram(kern.basis, rule, DEFAULT_MATERIAL))
        coeffs = rng.uniform(-1, 1, kern.basis.dim)
        denom = coeffs @ gram @ coeffs
        assert denom > 0
        dofs = dm @ coeffs
        assert (dofs @ kern.stiffness @ dofs) / denom == pytest.approx(1.0, rel=1e-9)


def test_stabilization_vanishes_on_polynomials(small_corpus):
    mesh = small_corpus[0]
    (stabilization,) = group_stabilization(mesh.cell_groups()[0], 4)
    dm = cell_dof_matrix(mesh, 4)
    assert np.abs(stabilization @ dm).max() <= 1e-10


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_moment_operator_exact_on_polynomials(order):
    """Interior moments of polynomial data match direct quadrature."""
    mesh = single_cell_mesh(PENTAGON)
    frame = cell_frame(mesh, 0)
    kern = cell_kernels(mesh, order)
    dm = cell_dof_matrix(mesh, order)
    rule = polygon_rule(frame.vertices, frame.star, 2 * order)
    basis_mid = ScaledMonomialBasis(frame.centroid, frame.diameter, order - 2)
    vals_mid = basis_mid.eval(rule.points)
    vals = kern.element_values(rule.points)
    expected = vals_mid.T @ (rule.weights[:, None] * vals)
    got = kern.moment_op @ dm
    assert np.abs(got - expected).max() <= 1e-12 * max(1.0, np.abs(expected).max())


def test_moment_operator_order2_is_projected_average(unit_square_mesh):
    frame = cell_frame(unit_square_mesh, 0)
    kern = cell_kernels(unit_square_mesh, 2)
    # single moment row: integral of the projected function
    w = lambda x, y: x**2
    gw = lambda x, y: (2 * x, np.zeros_like(x))
    dofs = cell_interpolant(unit_square_mesh, 2, w, gw)
    coeffs = kern.pi @ dofs
    rule = polygon_rule(frame.vertices, frame.star, 4)
    expected = rule.weights @ (kern.element_values(rule.points) @ coeffs)
    assert kern.moment_op @ dofs == pytest.approx(expected, rel=1e-12)


def test_local_load_zero_source():
    mesh = single_cell_mesh(PENTAGON)
    kern = cell_kernels(mesh, 3)
    zero = lambda x, y: np.zeros_like(np.asarray(x, dtype=float))
    assert np.abs(local.local_load(kern, zero)).max() == 0.0


def test_local_load_constant_source_pairs_to_area(unit_square_mesh):
    # dofs(1)^T load = integral of f over the cell for f constant
    frame = cell_frame(unit_square_mesh, 0)
    for order in (2, 3, 4):
        kern = cell_kernels(unit_square_mesh, order)
        one = lambda x, y: np.ones_like(np.asarray(x, dtype=float))
        zero2 = lambda x, y: (np.zeros_like(x), np.zeros_like(x))
        load = local.local_load(kern, one)
        dofs_one = cell_interpolant(unit_square_mesh, order, one, zero2)
        assert dofs_one @ load == pytest.approx(frame.area, rel=1e-12)


def test_local_load_polynomial_exact():
    """dofs(v)^T load = int f v for f of degree order-2, v of degree order."""
    mesh = single_cell_mesh(PENTAGON)
    frame = cell_frame(mesh, 0)
    order = 4
    kern = cell_kernels(mesh, order)
    f = lambda x, y: 1.0 + 2.0 * x - y + x * y
    v = lambda x, y: x**2 * y**2
    gv = lambda x, y: (2 * x * y**2, 2 * x**2 * y)
    load = local.local_load(kern, f)
    dofs_v = cell_interpolant(mesh, order, v, gv)
    rule = polygon_rule(frame.vertices, frame.star, 3 * order)
    x, y = rule.points[:, 0], rule.points[:, 1]
    exact = rule.weights @ (f(x, y) * v(x, y))
    assert dofs_v @ load == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("family, n, order", [("randomquad", 2, 2), ("octagonal", 1, 5), ("hexagonal", 1, 3)])
def test_local_load_matches_basis_oracle(family, n, order, mesh_cache):
    """The load's power-table monomials give bitwise the pairings of the
    oracle basis's values, on every cell."""
    f = manufactured.load(DEFAULT_MATERIAL)
    for view in cell_views(mesh_cache(family, n), order):
        frame = view.frame
        rule = polygon_rule(frame.vertices, frame.star, local.data_degree(order))
        vals = ScaledMonomialBasis(frame.centroid, frame.diameter, order - 2).eval(rule.points)
        fmom = vals.T @ (rule.weights * f(rule.points[:, 0], rule.points[:, 1]))
        ref = view.load_op @ fmom
        assert np.array_equal(local.local_load(view, f), ref), frame.index


@pytest.mark.parametrize("family", ["crisscross", "hexagonal", "octagonal", "randomquad"])
def test_load_op_is_moment_mass_solve(family, mesh_cache):
    """The closed-form load operator moment_op^T T_mid^T T_mid / area is
    the solve with the moment mass, (mass^-1 moment_op)^T, to 1e-13
    relative in every cell at orders 2 to 5."""
    mesh = mesh_cache(family, 1)
    for order in (2, 3, 4, 5):
        for view in cell_views(mesh, order):
            ref = np.linalg.solve(view.moment_mass, view.moment_op).T
            assert view.load_op.shape == ref.shape
            err = np.abs(view.load_op - ref).max()
            assert err <= 1e-13 * np.abs(ref).max(), (order, view.frame.index)


@pytest.mark.parametrize("order", [4, 5])
def test_interior_moments_span_chunks(order, mesh_cache):
    """Groups of every size, one larger than a chunk and not a multiple of
    it, match the cell-by-cell fan rule."""
    mesh = mesh_cache("hexagonal", 1)
    sizes = np.bincount(mesh.cells.lengths)
    assert sizes.max() > local.MOMENT_CHUNK and sizes.max() % local.MOMENT_CHUNK
    assert np.count_nonzero(sizes) > 1
    w, gw = manufactured.displacement, manufactured.gradient
    got = local.interior_moments(mesh, order, w)
    layout = local.dof_layout(3, order)
    for c in range(mesh.n_cells):
        frame = cell_frame(mesh, c)
        ref = reference_cell_dofs(frame, order, w, gw)[
            local.dof_layout(frame.n_vertices, order).cell_slice
        ]
        assert got[c].shape == (layout.n_cell,)
        assert np.abs(got[c] - ref).max() <= 1e-14 * np.abs(ref).max(), c


def test_interior_moments_name_cell_with_exterior_star(mesh_cache):
    """A star point moved outside its cell fails with the cell's id, also
    in a chunk after the first."""
    mesh = mesh_cache("hexagonal", 1)
    cell = int(np.flatnonzero(mesh.cells.lengths == 6)[local.MOMENT_CHUNK + 3])
    stars = mesh.stars.copy()
    corner = mesh.vertices[mesh.cells[cell][0]]
    stars[cell] = corner + (corner - mesh.centroids[cell])
    bad = dataclasses.replace(mesh, stars=stars)
    with pytest.raises(ValueError, match=rf"^cell {cell}: fan point is not interior"):
        local.interior_moments(bad, 4, manufactured.displacement)


def test_projector_material_independent_rates_data():
    # projector depends on the material only through scale-free ratios;
    # polynomial reproduction must hold for other admissible materials
    mesh = single_cell_mesh(PENTAGON)
    material = MaterialParams(young=70.0, thickness=0.02, poisson=0.45)
    gb = cell_group_basis(mesh, 3)
    gram, _ = local.energy_grams(gb, material)
    dm = local.dof_matrix(gb)
    pi = local.elliptic_projector(gb, material, gram, dm)[0]
    assert np.abs(pi @ dm[0] - np.eye(gb.vertex_values.shape[2])).max() <= 1e-12


def fan_quadrature_reference(frame, order, transform):
    """Energy and seminorm Grams, moment mass and interior unknown rows.

    Independent route through the fan quadrature of the cell and the
    Vandermonde matrix of the basis at its points. The Grams and the
    interior rows are taken to the element basis q = T m by ``transform``.
    """
    basis = ScaledMonomialBasis(frame.centroid, frame.diameter, order)
    rule = polygon_rule(frame.vertices, frame.star, 2 * order)
    vander = basis.eval(rule.points)
    weighted = rule.weights[:, None] * vander
    mid, low = space_dim(order - 2), space_dim(order - 4)
    energy = energy_gram(basis, rule, DEFAULT_MATERIAL)
    seminorm = hessian_seminorm_gram(basis, rule)
    return {
        "energy": transform @ energy @ transform.T,
        "seminorm": transform @ seminorm @ transform.T,
        "mass": vander[:, :mid].T @ weighted[:, :mid],
        "interior": vander[:, :low].T @ weighted @ transform.T / frame.area,
    }


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_exact_moments_match_fan_quadrature(order, small_corpus, mesh_cache):
    """Kernel integrals gathered from exact edge-integral moments.

    The moment mass is the closed form area L_mid L_mid^T whose inverse the
    load operator applies, L_mid the leading block of the element basis's
    factor. The corpus has 3- to 8-gons; the hexagonal mesh groups 4- to
    7-gons.
    """
    mid = space_dim(order - 2)
    worst = {}
    for mesh in [*small_corpus, mesh_cache("hexagonal", 1)]:
        for group in mesh.cell_groups():
            gb = local.group_basis(group, order)
            energy, _ = local.energy_grams(gb, DEFAULT_MATERIAL)
            dofs = local.dof_matrix(gb)
            kernels, _ = local.group_kernels(group, order, DEFAULT_MATERIAL)
            for k in range(group.n_cells):
                factor = gb.factor[k, :mid, :mid]
                got = {
                    "energy": energy[k],
                    "seminorm": kernels.seminorm_gram[k],
                    "mass": group.areas[k] * factor @ factor.T,
                    "interior": dofs[k, kernels.layout.cell_slice],
                }
                ref = fan_quadrature_reference(group_frame(group, k), order, gb.transform[k])
                for name, value in ref.items():
                    err = np.abs(got[name] - value).max(initial=0.0)
                    rel = err / max(np.abs(value).max(initial=0.0), 1e-300)
                    worst[name] = max(worst.get(name, 0.0), rel)
    assert all(rel <= 1e-13 for rel in worst.values()), worst


def test_group_kernels_match_single_cell(mesh_cache):
    """A cell's kernels do not depend on the group it is built in."""
    mesh = mesh_cache("hexagonal", 1)
    names = ("pi", "load_op", "seminorm_gram")
    for order in (2, 3, 4, 5):
        views = cell_views(mesh, order)
        for group in mesh.cell_groups():
            k = len(group.index) // 2
            c = int(group.index[k])
            alone, stiffness = local.group_kernels(mesh.cell_group([c]), order, DEFAULT_MATERIAL)
            cell = alone.cells[0]
            assert cell.group.index[cell.k] == views[c].frame.index == c
            pairs = {name: (getattr(alone, name)[0], getattr(views[c], name)) for name in names}
            pairs["stiffness"] = (stiffness[0], views[c].stiffness)
            pairs["stabilization"] = (
                group_stabilization(mesh.cell_group([c]), order)[0],
                group_stabilization(group, order)[k],
            )
            for name, (got, ref) in pairs.items():
                err = np.abs(got - ref).max()
                assert err <= 1e-14 * max(np.abs(ref).max(), 1.0), (order, c, name)


def _group_projector_inputs(mesh, order):
    group = mesh.cell_groups()[-1]
    gb = local.group_basis(group, order)
    gram, _ = local.energy_grams(gb, DEFAULT_MATERIAL)
    return group, gb, gram, local.dof_matrix(gb)


def test_projector_error_names_singular_cell(mesh_cache):
    group, gb, gram, dofs = _group_projector_inputs(mesh_cache("hexagonal", 0), 3)
    gram[1] = 0.0
    with pytest.raises(local.ProjectorError, match=f"cell {group.index[1]}: singular"):
        local.elliptic_projector(gb, DEFAULT_MATERIAL, gram, dofs)


def test_projector_error_names_non_finite_cell(mesh_cache):
    group, gb, gram, dofs = _group_projector_inputs(mesh_cache("hexagonal", 0), 3)
    gram[2] = np.nan
    with pytest.raises(local.ProjectorError, match=f"cell {group.index[2]}: .*non-finite"):
        local.elliptic_projector(gb, DEFAULT_MATERIAL, gram, dofs)


def exact_residual(pi: np.ndarray, dofs: np.ndarray) -> np.ndarray:
    """I - pi D of one cell in rational arithmetic, rounded once to float64."""
    rows = [[Fraction(x) for x in row] for row in pi.tolist()]
    cols = [[Fraction(x) for x in col] for col in dofs.T.tolist()]
    return np.array(
        [[float((i == j) - sum(map(mul, p, d))) for j, d in enumerate(cols)]
         for i, p in enumerate(rows)]
    )


def test_float64_residual_matches_exact_product(mesh_cache):
    """On an order-5 octagon the plain float64 reproduction residual of the
    element basis is within a few ulps of the exact one, which is itself
    far below the reproduction gate: the check needs no extended product."""
    mesh = mesh_cache("octagonal", 0)
    (octagons,) = [g for g in mesh.cell_groups() if g.n_vertices == 8]
    gb = local.group_basis(mesh.cell_group(octagons.index[:1]), 5)
    gram, _ = local.energy_grams(gb, DEFAULT_MATERIAL)
    dofs = local.dof_matrix(gb)
    pi = local.elliptic_projector(gb, DEFAULT_MATERIAL, gram, dofs)
    exact = exact_residual(pi[0], dofs[0])
    got = np.eye(pi.shape[1]) - pi[0] @ dofs[0]
    assert np.abs(got - exact).max() <= 8 * np.finfo(float).eps
    assert np.abs(exact).max() <= 1e-13


def saddle_projector(gb, gram, dofs):
    """The projector from the full saddle system [[G, C^T], [C, 0]] of the
    element basis, closed by the vertex averages against 1, x, y."""
    pairings = local.load_rows(gb, DEFAULT_MATERIAL)
    m = gb.layout.n_vertices
    lin = np.swapaxes(gb.vertex_values[..., :3], 1, 2)
    constraint = lin @ dofs[:, :m]
    g, n, n_total = pairings.shape
    saddle = np.zeros((g, n + 3, n + 3))
    saddle[:, :n, :n] = gram
    saddle[:, n:, :n] = constraint
    saddle[:, :n, n:] = np.swapaxes(constraint, 1, 2)
    rhs = np.zeros((g, n + 3, n_total))
    rhs[:, :n] = pairings
    rhs[:, n:, :m] = lin
    return np.linalg.solve(saddle, rhs)[:, :n]


@pytest.mark.parametrize("family", ["crisscross", "hexagonal", "octagonal", "randomquad"])
def test_projector_matches_saddle_solve(family, mesh_cache):
    """The block solve (zero multiplier, Gram block, 3 x 3 constraint) gives
    the solution of the whole saddle system at orders 2 to 5."""
    mesh = mesh_cache(family, 0)
    worst = 0.0
    for order in (2, 3, 4, 5):
        for group in mesh.cell_groups():
            gb = local.group_basis(group, order)
            gram, _ = local.energy_grams(gb, DEFAULT_MATERIAL)
            dofs = local.dof_matrix(gb)
            ref = saddle_projector(gb, gram, dofs)
            got = local.elliptic_projector(gb, DEFAULT_MATERIAL, gram, dofs)
            worst = max(worst, np.abs(got - ref).max() / np.abs(ref).max())
    assert worst <= 1e-12


def worst_reproduction(meshes, order: int) -> float:
    """Largest plain float64 max |pi D - I| over the cells of ``meshes``."""
    worst = 0.0
    for mesh in meshes:
        for group in mesh.cell_groups():
            gb = local.group_basis(group, order)
            gram, _ = local.energy_grams(gb, DEFAULT_MATERIAL)
            dofs = local.dof_matrix(gb)
            pi = local.elliptic_projector(gb, DEFAULT_MATERIAL, gram, dofs)
            worst = max(worst, np.abs(pi @ dofs - np.eye(pi.shape[1])).max())
    return worst


def test_order5_reproduction_in_float64(mesh_cache):
    """Order 5 reproduces in the element basis with no correction step:
    1e-12 on two seeded corpora, 5e-11 on a random quadrilateral mesh."""
    for seed in (7, 11):
        assert worst_reproduction(polygon_corpus(seed, 100), 5) <= 1e-12, seed
    assert worst_reproduction([mesh_cache("randomquad", 3, 10)], 5) <= 5e-11


BAD_CELLS = {
    "aspect-1e-2": [[0, 0], [1, 0], [1, 1e-2], [0, 1e-2]],
    "aspect-1e-4": [[0, 0], [1, 0], [1, 1e-4], [0, 1e-4]],
    "edge-1e-6": [[0, 0], [1, 0], [1, 1], [1e-6, 1], [0, 1 - 1e-6]],
    "edge-1e-10": [[0, 0], [1, 0], [1, 1], [1e-10, 1], [0, 1 - 1e-10]],
    "nearly-collinear": [[0, 0], [0.5, -1e-8], [1, 0], [1, 1], [0, 1]],
    "collinear": [[0, 0], [0.5, 0], [1, 0], [1, 1], [0, 1]],
    "collinear-triangle": [[0, 0], [1, 0], [2, 0]],
    "sliver-triangle": [[0, 0], [1, 0], [0.5, 1e-6]],
}


@pytest.mark.parametrize("order", [2, 3, 4, 5])
@pytest.mark.parametrize("name", sorted(BAD_CELLS))
def test_bad_cell_is_classified_or_reproduces(name, order):
    """A badly shaped cell either raises a classified error or gets a
    projector whose exact reproduction residual meets the tolerance."""
    try:
        mesh = single_cell_mesh(np.array(BAD_CELLS[name], dtype=float))
        pi = cell_kernels(mesh, order).pi
    except (local.ProjectorError, MeshError):
        return
    residual = np.abs(exact_residual(pi, cell_dof_matrix(mesh, order))).max()
    assert residual <= local.REPRODUCTION_TOL


@pytest.mark.parametrize("order", [4, 5])
def test_aspect_1e2_cell_reproduces(order):
    """The element basis makes the 100:1 rectangle reproduce at orders 4
    and 5, where the scaled monomials raised ProjectorError."""
    mesh = single_cell_mesh(np.array(BAD_CELLS["aspect-1e-2"], dtype=float))
    pi = cell_kernels(mesh, order).pi
    assert np.abs(exact_residual(pi, cell_dof_matrix(mesh, order))).max() <= local.REPRODUCTION_TOL


# Messages of a cell that fails the reproduction gate, and of one whose
# Gram block is not numerically positive definite: the sliver triangle
# gives the first at order 4, and either at order 5.
UNREPRODUCING = "polynomial reproduction residual"
CLASSIFIED = f"({UNREPRODUCING}|singular projector system)"


def test_projector_error_names_unreproducing_cell():
    mesh = single_cell_mesh(np.array(BAD_CELLS["sliver-triangle"], dtype=float))
    with pytest.raises(local.ProjectorError, match=f"cell 0: {UNREPRODUCING}"):
        cell_kernels(mesh, 4)
    with pytest.raises(local.ProjectorError, match=f"cell 0: {CLASSIFIED}"):
        cell_kernels(mesh, 5)


def chunked_kernels(monkeypatch, group, order: int, cells_per_chunk: int):
    """``group_kernels`` with chunks of ``cells_per_chunk`` cells."""
    n_total = local.dof_layout(group.n_vertices, order).n_total
    monkeypatch.setattr(local, "KERNEL_CHUNK_BYTES", 8 * n_total**2 * cells_per_chunk)
    return local.group_kernels(group, order, DEFAULT_MATERIAL)


def split_size(n_cells: int):
    """Smallest chunk size of two or more cells that splits ``n_cells`` into
    several chunks plus a partial one of two or more cells, if any does."""
    return next((s for s in range(2, n_cells // 2 + 1) if n_cells % s >= 2), None)


@pytest.mark.parametrize("family", ["crisscross", "hexagonal", "octagonal", "randomquad"])
def test_chunked_build_equals_one_pass(family, mesh_cache, monkeypatch):
    """A group built in several chunks plus a partial one has bitwise the
    stacks of one pass over it, and its per-cell views are rows of them.

    Groups of 10 to 100 cells split as 4 + 4 + 2 up to 16 x 6 + 4. One cell
    per chunk, the floor of the chunk rule, is bitwise too, the load
    operator included.
    """
    names = ("pi", "load_op", "seminorm_gram", "seminorm_max")
    split = 0
    for order in (2, 3, 4, 5):
        for group in mesh_cache(family, 0).cell_groups():
            whole, whole_stiffness = chunked_kernels(monkeypatch, group, order, group.n_cells)
            size = split_size(group.n_cells)
            for cells_per_chunk in (size, 1) if size else (1,):
                parts, stiffness = chunked_kernels(monkeypatch, group, order, cells_per_chunk)
                assert np.array_equal(parts.index, group.index)
                assert np.array_equal(stiffness, whole_stiffness), order
                for name in names:
                    got, ref = getattr(parts, name), getattr(whole, name)
                    assert np.array_equal(got, ref), (order, cells_per_chunk, name)
                for k, view in enumerate(parts.cells):
                    assert view.group.index[view.k] == group.index[k]
                    assert np.shares_memory(view.load_op, parts.load_op)
            split += size is not None
    assert split >= 4


def with_cell(group: CellGroup, one: CellGroup, position: int, index: int) -> CellGroup:
    """``group`` with the only cell of ``one`` inserted at ``position`` as mesh cell ``index``."""

    def rows(name):
        inserted = np.array([index]) if name == "index" else getattr(one, name)
        stack = getattr(group, name)
        return np.concatenate([stack[:position], inserted, stack[position:]])

    return CellGroup(**{f.name: rows(f.name) for f in dataclasses.fields(group)})


@pytest.mark.parametrize("position", [11, 100])
def test_projector_error_names_cell_in_later_chunk(position, mesh_cache, monkeypatch):
    """The sliver triangle among 100 good triangles, in the second chunk of
    eight cells or in the partial last one, is named by its mesh id."""
    (triangles,) = mesh_cache("crisscross", 0).cell_groups()
    (sliver,) = single_cell_mesh(np.array(BAD_CELLS["sliver-triangle"], dtype=float)).cell_groups()
    group = with_cell(triangles, sliver, position, 4242)
    with pytest.raises(local.ProjectorError, match=f"cell 4242: {UNREPRODUCING}"):
        chunked_kernels(monkeypatch, group, 4, 8)
    with pytest.raises(local.ProjectorError, match=f"cell 4242: {CLASSIFIED}"):
        chunked_kernels(monkeypatch, group, 5, 8)


def build_excess_mib(mesh, order: int) -> float:
    """Traced peak of ``build_local_kernels`` above the memory it keeps, in MiB.

    A first, untraced build fills the per-order caches, so the traced one
    keeps only its kernel groups and stiffness stacks.
    """
    local.build_local_kernels(mesh, order, DEFAULT_MATERIAL)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        built = local.build_local_kernels(mesh, order, DEFAULT_MATERIAL)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    del built
    return (peak - kept) / 2**20


def test_kernel_build_peak_stays_near_its_output(mesh_cache):
    """Order 5 on 400 octagons is built in 29-cell chunks: the whole-group
    build's temporaries reached 34 MiB above its 23 MiB of output. The
    1600 order-2 quadrilaterals are one chunk, which reads 3.0 MiB over."""
    assert build_excess_mib(mesh_cache("octagonal", 2), 5) <= 8.0
    assert build_excess_mib(mesh_cache("randomquad", 4), 2) <= 2.8 + 0.5


def test_src_uses_no_extended_precision_types():
    """Numerics must not depend on the width of a platform's long double
    (the pattern also matches ``clongdouble``)."""
    pattern = re.compile(r"longdouble|float128")
    src = Path(local.__file__).parent
    hits = [
        f"{path.name}:{number}"
        for path in sorted(src.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert not hits


def _names_in_use(path: Path, strings: bool = True) -> set[str]:
    """Identifiers a module reads: names, attributes, imports, and, with
    ``strings``, the dotted identifiers of its string constants other than
    docstrings (``__all__`` names functions in strings)."""
    tree = ast.parse(path.read_text())
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.split(".")[-1])
        elif (
            strings
            and isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
        ):
            used.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return used


def test_src_defines_nothing_only_tests_use():
    """Every module-level function and class of ``src/platevem``, and every
    non-dunder method of its classes, is named somewhere in ``src/`` or
    ``perfbench/`` besides its own definition; code only tests reach
    belongs in ``tests/oracles.py``. The check is by name, so it cannot see
    chains of test-only functions that call one another, nor a test-only
    function that shares its name with one in use. The benchmark's tracer
    names its targets in strings; a target's names count only while the
    target resolves, so a stale one keeps nothing alive."""
    src = Path(local.__file__).parent
    tracing = load_module("tracing")
    readers = sorted(src.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
    used = set().union(
        *(_names_in_use(path, strings=path.name != "tracing.py") for path in readers)
    )
    for target in tracing.TARGETS:
        try:
            tracing._resolve(target)
        except (ImportError, AttributeError):
            continue
        used.update(target.attr.split("."))
    unused = []
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name not in used:
                unused.append(f"{path.name}:{node.name}")
            if isinstance(node, ast.ClassDef):
                unused += [
                    f"{path.name}:{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                    and item.name not in used
                ]
    assert not unused
