import warnings

import numpy as np
import pytest

from platevem import convergence as cv
from platevem import manufactured
from platevem.assembly import (
    BoundarySpec,
    PlateSolver,
    assemble_load,
    global_dof_map,
    interpolate,
)
from platevem.local import build_local_kernels
from platevem.mesh import MeshError
from platevem.plate import DEFAULT_MATERIAL
from platevem.quadrature import polygon_rule

from conftest import (
    cell_views,
    reference_load,
    reference_project_solution,
    reference_seminorm_2h,
    reference_seminorm_scale,
)
from oracles import energy_gram, hessian


def test_projection_reproduces_polynomials(mesh_cache):
    mesh = mesh_cache("randomquad", 0)
    kernels, _ = build_local_kernels(mesh, 3, DEFAULT_MATERIAL)
    u = lambda x, y: x**3 - 2 * x * y**2 + 0.5
    gu = lambda x, y: (3 * x**2 - 2 * y**2, -4 * x * y)
    field = cv.project_exact(mesh, kernels, u, gu)
    for c, kern in enumerate(cell_views(mesh, 3)):
        pts = kern.frame.vertices * 0.5 + kern.frame.centroid * 0.5
        got = kern.element_values(pts) @ field[c]
        assert np.allclose(got, u(pts[:, 0], pts[:, 1]), atol=1e-11)


def test_identical_fields_zero_error(mesh_cache):
    mesh = mesh_cache("crisscross", 0)
    kernels, _ = build_local_kernels(mesh, 2, DEFAULT_MATERIAL)
    field = cv.project_exact(
        mesh, kernels, manufactured.displacement, manufactured.gradient
    )
    assert cv.error_2h(kernels, field, field) == 0.0


def test_scaled_field_ratio_one(mesh_cache):
    # doubling the discrete field makes the difference equal to -u, so the
    # relative error is exactly one
    mesh = mesh_cache("crisscross", 0)
    kernels, _ = build_local_kernels(mesh, 2, DEFAULT_MATERIAL)
    field = cv.project_exact(
        mesh, kernels, manufactured.displacement, manufactured.gradient
    )
    assert cv.error_2h(kernels, field, 2.0 * field) == pytest.approx(1.0, rel=1e-12)


def test_linear_reference_gives_absolute_seminorm(mesh_cache):
    """A piecewise linear reference has no relative error: ``error_2h``
    returns the absolute broken H2 seminorm of the difference, held against
    its cell-by-cell reference. The discrete field is perturbed so that the
    difference is not at rounding level."""
    mesh = mesh_cache("crisscross", 0)
    kernels, _ = build_local_kernels(mesh, 2, DEFAULT_MATERIAL)
    u = lambda x, y: 1.0 + x - 2.0 * y
    gu = lambda x, y: (np.ones_like(x), -2.0 * np.ones_like(x))
    field = cv.project_exact(mesh, kernels, u, gu)
    discrete = field + 1e-3 * np.random.default_rng(2).standard_normal(field.shape)
    absolute = reference_seminorm_2h(cell_views(mesh, 2), field - discrete)
    assert absolute > 0.0
    assert cv.error_2h(kernels, field, discrete) == pytest.approx(absolute, rel=1e-12)


def test_error_invariant_under_global_linear_shift(mesh_cache):
    mesh = mesh_cache("octagonal", 0)
    kernels, _ = build_local_kernels(mesh, 3, DEFAULT_MATERIAL)
    u = cv.project_exact(
        mesh, kernels, manufactured.displacement, manufactured.gradient
    )
    rng = np.random.default_rng(0)
    uh = u + 1e-3 * rng.standard_normal(u.shape)
    base = cv.error_2h(kernels, u, uh)
    lin = lambda x, y: 0.7 - 1.3 * x + 0.2 * y
    glin = lambda x, y: (-1.3 * np.ones_like(x), 0.2 * np.ones_like(x))
    shift = cv.project_exact(mesh, kernels, lin, glin)
    assert cv.error_2h(kernels, u + shift, uh + shift) == pytest.approx(base, rel=1e-9)


def test_piecewise_linear_seminorm_zero(mesh_cache):
    mesh = mesh_cache("crisscross", 0)
    kernels, _ = build_local_kernels(mesh, 2, DEFAULT_MATERIAL)
    coeffs = np.zeros((mesh.n_cells, kernels[0].dim))
    rng = np.random.default_rng(1)
    coeffs[:, :3] = rng.uniform(-1, 1, (mesh.n_cells, 3))
    assert max(cv.seminorm_terms(kernels, coeffs, coeffs)[:2]) <= 1e-13


def test_projection_matches_dense_oracle(mesh_cache):
    """Unknown-based projection equals a dense constrained projection.

    The oracle solves the same minimization directly from volume integrals
    of the true Hessian of the reference displacement: no edge unknowns, no
    boundary identity, only quadrature against the callbacks.
    """
    mesh = mesh_cache("crisscross", 0)
    order = 4
    kernels, _ = build_local_kernels(mesh, order, DEFAULT_MATERIAL)
    field = cv.project_exact(
        mesh, kernels, manufactured.displacement, manufactured.gradient
    )
    nu = DEFAULT_MATERIAL.poisson
    rigidity = DEFAULT_MATERIAL.rigidity
    views = cell_views(mesh, order)
    for c in (0, 37, 71):
        kern = views[c]
        frame = kern.frame
        basis = kern.basis
        rule = polygon_rule(frame.vertices, frame.star, order + 8)
        x, y = rule.points[:, 0], rule.points[:, 1]
        uxx, uxy, uyy = hessian(x, y)
        bxx = basis.eval(rule.points, (2, 0))
        bxy = basis.eval(rule.points, (1, 1))
        byy = basis.eval(rule.points, (0, 2))
        lap_u = uxx + uyy
        lap_b = bxx + byy
        w = rule.weights
        rhs = rigidity * (
            nu * (lap_b.T @ (w * lap_u))
            + (1 - nu)
            * (bxx.T @ (w * uxx) + 2 * (bxy.T @ (w * uxy)) + byy.T @ (w * uyy))
        )
        rule2 = polygon_rule(frame.vertices, frame.star, 2 * order)
        gram = energy_gram(basis, rule2, DEFAULT_MATERIAL)
        vander = basis.eval(frame.vertices)
        constraints = vander[:, :3].T @ vander
        uvert = manufactured.displacement(
            frame.vertices[:, 0], frame.vertices[:, 1]
        )
        d = vander[:, :3].T @ uvert
        n = basis.dim
        saddle = np.zeros((n + 3, n + 3))
        saddle[:n, :n] = gram
        saddle[:n, n:] = constraints.T
        saddle[n:, :n] = constraints
        oracle = np.linalg.solve(saddle, np.concatenate([rhs, d]))[:n]
        monomial = kern.transform.T @ field[c]  # q = T m
        assert np.abs(oracle - monomial).max() <= 1e-10


@pytest.mark.parametrize("family", ["crisscross", "hexagonal", "octagonal", "randomquad"])
def test_batched_consumers_match_cellwise_reference(family, mesh_cache):
    """Projection, seminorms and load scatter, one vertex-count group at a
    time, match their cell-by-cell references at orders 2 to 5; hexagonal
    n = 1 groups 4- to 7-gons.

    Projections differ only in summation order, so they are held to the
    rounding scale sum |pi| |u| of each cell. The smooth interpolant's
    high-order coefficients are far smaller than that scale (cancellation),
    so the bound against the largest coefficient applies to random unknowns.
    """
    mesh = mesh_cache(family, 1)
    f = manufactured.load(DEFAULT_MATERIAL)
    rng = np.random.default_rng(3)
    for order in (2, 3, 4, 5):
        kernels, _ = build_local_kernels(mesh, order, DEFAULT_MATERIAL)
        assert len(kernels) == len(np.unique(mesh.cells.lengths))
        views = cell_views(mesh, order)
        dofmap = global_dof_map(mesh, order)
        smooth = interpolate(dofmap, manufactured.displacement, manufactured.gradient)
        for unknowns in (smooth, rng.standard_normal(dofmap.n_total)):
            got = cv.project_solution(mesh, kernels, dofmap, unknowns)
            ref = reference_project_solution(views, unknowns)
            rounding = max((np.abs(v.pi) @ np.abs(unknowns[v.dofs])).max() for v in views)
            assert np.abs(got - ref).max() <= 1e-14 * rounding, order
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), order
        exact = reference_project_solution(views, smooth)
        noisy = exact + 1e-3 * rng.standard_normal(exact.shape)
        for coeffs, other in ((exact, noisy - exact), (noisy, exact)):
            refs = (
                reference_seminorm_2h(views, coeffs),
                reference_seminorm_2h(views, other),
                reference_seminorm_scale(views, coeffs),
            )
            for got, ref in zip(cv.seminorm_terms(kernels, coeffs, other), refs):
                assert abs(got - ref) <= 1e-14 * ref, order
        load = assemble_load(mesh, kernels, dofmap, f)
        ref_load = reference_load(views, dofmap.n_total, f)
        assert np.abs(load - ref_load).max() <= 1e-14 * np.abs(ref_load).max(), order


def test_pairwise_and_windowed_rates():
    records = [
        cv.ConvergenceRecord("x", n, 0.5**n, 4**n * 100, (0.5**n) ** 2, 0, 0)
        for n in range(4)
    ]
    cv.pairwise_rates(records)
    assert np.isnan(records[0].rate_h)
    for rec in records[1:]:
        assert rec.rate_h == pytest.approx(2.0)
        assert rec.rate_dofs == pytest.approx(1.0)
    assert cv.windowed_rate(records) == pytest.approx(2.0)
    assert cv.windowed_rate(records, "dofs") == pytest.approx(1.0)


def test_study_rejects_bad_arguments():
    with pytest.raises(ValueError):
        cv.convergence_study("crisscross", 7, 2)
    with pytest.raises(ValueError):
        cv.convergence_study("crisscross", 5, 8)


def test_study_rejects_negative_seed():
    with pytest.raises(MeshError, match="seed must be a nonnegative integer"):
        cv.convergence_study("randomquad", 2, 0, seed=-3)


def test_windowed_rate_of_one_row_is_nan():
    """One row fits no line: the rate is NaN, and no fit is attempted (any
    NumPy warning fails the test)."""
    records = [cv.ConvergenceRecord("x", 0, 0.2, 96, 0.3, float("nan"), float("nan"))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(cv.windowed_rate(records))
        assert np.isnan(cv.windowed_rate(records, "dofs"))
        assert np.isnan(cv.windowed_rate([]))


def test_error_ratio_between_refinements(mesh_cache):
    """Halving h at order 2 roughly halves the error (rate about one)."""
    errors = []
    f = manufactured.load(DEFAULT_MATERIAL)
    for n in (0, 1):
        mesh = mesh_cache("crisscross", n)
        solver = PlateSolver(mesh, 2, DEFAULT_MATERIAL)
        sol = solver.solve(f, BoundarySpec.clamped())
        errors.append(
            cv.measured_error(solver, sol, manufactured.displacement, manufactured.gradient)
        )
    assert 1.6 <= errors[0] / errors[1] <= 2.6


def test_measured_error_policies_on_monomials(mesh_cache):
    """``measured_error`` is, bitwise, ``error_2h`` of the two projections
    on every monomial. On the linear ones (p + q <= 1) that is the absolute
    broken H2 seminorm of the difference, here held against its cell-by-cell
    reference. The solutions are perturbed so that no error is at rounding
    level."""
    mesh = mesh_cache("hexagonal", 0)
    solver = PlateSolver(mesh, 3, DEFAULT_MATERIAL)
    views = cell_views(mesh, 3)
    rng = np.random.default_rng(4)
    for p, q in manufactured.monomial_exponent_pairs(3):
        u, grad, f = manufactured.monomial_solution(p, q, DEFAULT_MATERIAL)
        sol = solver.solve(f, BoundarySpec.dirichlet(u, grad))
        sol += 1e-3 * rng.standard_normal(sol.shape)
        measured = cv.measured_error(solver, sol, u, grad)
        pu = cv.project_exact(mesh, solver.kernels, u, grad)
        puh = cv.project_solution(mesh, solver.kernels, solver.dofmap, sol)
        assert measured == cv.error_2h(solver.kernels, pu, puh), (p, q)
        if p + q <= 1:
            absolute = reference_seminorm_2h(views, pu - puh)
            assert absolute > 0.0
            assert measured == pytest.approx(absolute, rel=1e-12), (p, q)


def test_csv_and_plot_output(tmp_path):
    records = [
        cv.ConvergenceRecord("crisscross", 0, 0.2, 221, 0.5, float("nan"), float("nan")),
        cv.ConvergenceRecord("crisscross", 1, 0.1, 841, 0.25, 1.0, 0.5),
    ]
    csv_path = tmp_path / "study.csv"
    cv.write_csv(records, csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == cv.CSV_HEADER
    assert lines[1].startswith("crisscross,0,0.2,221,0.5,")
    plot_path = tmp_path / "plot.dat"
    cv.write_plot_data(records, plot_path)
    assert len(plot_path.read_text().splitlines()) == 2
