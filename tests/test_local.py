import numpy as np
import pytest

from platevem import local
from platevem.plate import DEFAULT_MATERIAL, MaterialParams, energy_gram, hessian_seminorm_gram
from platevem.polynomials import ScaledMonomialBasis, space_dim
from platevem.quadrature import polygon_rule

from conftest import (
    cell_dof_matrix,
    cell_group_basis,
    cell_interpolant,
    cell_kernels,
    single_cell_mesh,
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
        covered.extend(range(layout.n_total)[layout.edge_normal_slice(i)])
    for i in range(5):
        covered.extend(range(layout.n_total)[layout.edge_value_slice(i)])
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
    frame = mesh.frame(0)
    w = lambda x, y: np.asarray(x, dtype=float)
    gw = lambda x, y: (np.ones_like(x), np.zeros_like(x))
    dofs = cell_interpolant(mesh, 2, w, gw)
    layout = local.dof_layout(4, 2)
    left = 3  # local edge 3 joins vertices (0,1) and (0,0)
    normal = frame.normals[left]
    value = dofs[layout.edge_normal_slice(left)][0]
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
    assert np.allclose(kern.basis.eval(pts) @ coeffs, w(pts[:, 0], pts[:, 1]), atol=1e-12)


def test_gram_rank_deficiency_three(small_corpus):
    for mesh in small_corpus[:6]:
        grams, _ = local.energy_grams(cell_group_basis(mesh, 3), DEFAULT_MATERIAL)
        s = np.linalg.svd(grams[0], compute_uv=False)
        assert int((s < 1e-10 * s.max()).sum()) == 3


def test_b_matrix_ignores_trace_moments_at_order_two(small_corpus):
    # effective shear of quadratics vanishes identically, so no order-2
    # pairing can touch trace unknowns (none exist in the layout either)
    mesh = small_corpus[0]
    layout = local.dof_layout(mesh.frame(0).n_vertices, 2)
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
        frame = mesh.frame(0)
        kern = cell_kernels(mesh, order)
        dm = cell_dof_matrix(mesh, order)
        rule = polygon_rule(frame.vertices, frame.star, 2 * order)
        gram = energy_gram(kern.basis, rule, DEFAULT_MATERIAL)
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
        frame = mesh.frame(0)
        order = int(rng.integers(2, 6))
        kern = cell_kernels(mesh, order)
        dm = cell_dof_matrix(mesh, order)
        rule = polygon_rule(frame.vertices, frame.star, 2 * order)
        gram = energy_gram(kern.basis, rule, DEFAULT_MATERIAL)
        coeffs = rng.uniform(-1, 1, kern.basis.dim)
        denom = coeffs @ gram @ coeffs
        assert denom > 0
        dofs = dm @ coeffs
        assert (dofs @ kern.stiffness @ dofs) / denom == pytest.approx(1.0, rel=1e-9)


def test_stabilization_vanishes_on_polynomials(small_corpus):
    mesh = small_corpus[0]
    kern = cell_kernels(mesh, 4)
    dm = cell_dof_matrix(mesh, 4)
    assert np.abs(kern.stabilization @ dm).max() <= 1e-10


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_moment_operator_exact_on_polynomials(order):
    """Interior moments of polynomial data match direct quadrature."""
    mesh = single_cell_mesh(PENTAGON)
    frame = mesh.frame(0)
    kern = cell_kernels(mesh, order)
    dm = cell_dof_matrix(mesh, order)
    rule = polygon_rule(frame.vertices, frame.star, 2 * order)
    basis_mid = ScaledMonomialBasis(frame.centroid, frame.diameter, order - 2)
    vals_mid = basis_mid.eval(rule.points)
    vals = kern.basis.eval(rule.points)
    expected = vals_mid.T @ (rule.weights[:, None] * vals)
    got = kern.moment_op @ dm
    assert np.abs(got - expected).max() <= 1e-12 * max(1.0, np.abs(expected).max())


def test_moment_operator_order2_is_projected_average(unit_square_mesh):
    frame = unit_square_mesh.frame(0)
    kern = cell_kernels(unit_square_mesh, 2)
    # single moment row: integral of the projected function
    w = lambda x, y: x**2
    gw = lambda x, y: (2 * x, np.zeros_like(x))
    dofs = cell_interpolant(unit_square_mesh, 2, w, gw)
    coeffs = kern.pi @ dofs
    rule = polygon_rule(frame.vertices, frame.star, 4)
    expected = rule.weights @ (kern.basis.eval(rule.points) @ coeffs)
    assert kern.moment_op @ dofs == pytest.approx(expected, rel=1e-12)


def test_local_load_zero_source():
    mesh = single_cell_mesh(PENTAGON)
    kern = cell_kernels(mesh, 3)
    zero = lambda x, y: np.zeros_like(np.asarray(x, dtype=float))
    assert np.abs(local.local_load(kern, zero)).max() == 0.0


def test_local_load_constant_source_pairs_to_area(unit_square_mesh):
    # dofs(1)^T load = integral of f over the cell for f constant
    frame = unit_square_mesh.frame(0)
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
    frame = mesh.frame(0)
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


def fan_quadrature_reference(frame, order):
    """Energy and seminorm Grams, moment mass and interior unknown rows.

    Independent route through the fan quadrature of the cell and the
    Vandermonde matrix of the basis at its points.
    """
    basis = ScaledMonomialBasis(frame.centroid, frame.diameter, order)
    rule = polygon_rule(frame.vertices, frame.star, 2 * order)
    vander = basis.eval(rule.points)
    weighted = rule.weights[:, None] * vander
    mid, low = space_dim(order - 2), space_dim(order - 4)
    return {
        "energy": energy_gram(basis, rule, DEFAULT_MATERIAL),
        "seminorm": hessian_seminorm_gram(basis, rule),
        "mass": vander[:, :mid].T @ weighted[:, :mid],
        "interior": vander[:, :low].T @ weighted / frame.area,
    }


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_exact_moments_match_fan_quadrature(order, small_corpus, mesh_cache):
    """Kernel integrals gathered from exact edge-integral moments.

    The corpus has 3- to 8-gons; the hexagonal mesh groups 4- to 7-gons.
    """
    worst = {}
    for mesh in [*small_corpus, mesh_cache("hexagonal", 1)]:
        for group in mesh.cell_groups():
            gb = local.group_basis(group, order)
            energy, _ = local.energy_grams(gb, DEFAULT_MATERIAL)
            dofs = local.dof_matrix(gb)
            kernels = local.group_kernels(group, order, DEFAULT_MATERIAL)
            for k, kern in enumerate(kernels):
                got = {
                    "energy": energy[k],
                    "seminorm": kern.seminorm_gram,
                    "mass": kern.moment_mass,
                    "interior": dofs[k, kern.layout.cell_slice],
                }
                ref = fan_quadrature_reference(group.frame(k), order)
                for name, value in ref.items():
                    err = np.abs(got[name] - value).max(initial=0.0)
                    rel = err / max(np.abs(value).max(initial=0.0), 1e-300)
                    worst[name] = max(worst.get(name, 0.0), rel)
    assert all(rel <= 1e-13 for rel in worst.values()), worst


def test_group_kernels_match_single_cell(mesh_cache):
    """A cell's kernels do not depend on the group it is built in."""
    mesh = mesh_cache("hexagonal", 1)
    names = ("pi", "stiffness", "stabilization", "moment_op", "moment_mass", "seminorm_gram")
    for order in (2, 3, 4, 5):
        kernels = local.build_local_kernels(mesh, order, DEFAULT_MATERIAL)
        for group in mesh.cell_groups():
            c = int(group.index[len(group.index) // 2])
            (alone,) = local.group_kernels(mesh.cell_group([c]), order, DEFAULT_MATERIAL)
            assert alone.frame.index == kernels[c].frame.index == c
            for name in names:
                ref = getattr(kernels[c], name)
                err = np.abs(getattr(alone, name) - ref).max()
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
