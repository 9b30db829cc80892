"""Projected broken-energy error metric and convergence study harness."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import manufactured
from .assembly import BoundarySpec, PlateSolver, global_dof_map, interpolate
from .generators import build_family
from .local import KernelGroup
from .mesh import PolygonMesh
from .plate import DEFAULT_MATERIAL, MaterialParams


class ZeroSeminormError(Exception):
    """Reference field projects to piecewise linears: relative error undefined."""


@dataclass
class ProjectedField:
    """Cellwise polynomial coefficients of a projection, each in its cell's
    element basis (see :mod:`platevem.local`), the basis of the kernel
    groups' seminorm Grams."""

    mesh: PolygonMesh
    order: int
    coefficients: np.ndarray  # (n_cells, dim)


def project_solution(
    mesh: PolygonMesh,
    kernels: list[KernelGroup],
    dofmap,
    solution: np.ndarray,
) -> ProjectedField:
    """Cellwise energy projection of a discrete solution vector."""
    coeffs = np.empty((mesh.n_cells, kernels[0].dim))
    for group in kernels:
        unknowns = solution[dofmap.group_dofs(group.index)]
        coeffs[group.index] = np.einsum("gdn,gn->gd", group.pi, unknowns)
    return ProjectedField(mesh, kernels[0].layout.order, coeffs)


def project_exact(
    mesh: PolygonMesh,
    kernels: list[KernelGroup],
    w,
    grad_w,
) -> ProjectedField:
    """Cellwise energy projection of a smooth function given by callbacks."""
    dofmap = global_dof_map(mesh, kernels[0].layout.order)
    return project_solution(mesh, kernels, dofmap, interpolate(dofmap, w, grad_w))


def seminorm_terms(
    kernels: list[KernelGroup], reference: np.ndarray, difference: np.ndarray
) -> tuple[float, float, float]:
    """Broken H2 seminorms of ``reference`` and ``difference``, and the
    magnitude a generic field with the reference's coefficients would have.

    Each group's seminorm Gram stack is read once, by one matrix product
    with both fields. The magnitude, sum over cells of max |G_ij| |c|^2
    under a square root, detects reference fields whose seminorm is pure
    rounding noise (projections of globally linear functions).
    """
    forms = np.zeros(2)
    scale = 0.0
    for group in kernels:
        ref = reference[group.index]
        pair = np.stack([ref, difference[group.index]], axis=1)  # (G, 2, dim)
        forms += np.einsum("gsi,gsi->s", pair @ group.seminorm_gram, pair)
        scale += float(group.seminorm_max @ np.einsum("gi,gi->g", ref, ref))
    ref_norm, diff_norm = np.sqrt(np.maximum(forms, 0.0))
    return float(ref_norm), float(diff_norm), float(np.sqrt(scale))


# A reference seminorm at most this fraction of the magnitude from
# seminorm_terms is rounding noise: the reference is piecewise linear.
LINEAR_NOISE = 1e-9


def error_2h(
    kernels: list[KernelGroup],
    exact: ProjectedField,
    discrete: ProjectedField,
) -> float:
    """Relative broken H2 distance between two projected fields.

    Raises
    ------
    ZeroSeminormError
        When the reference field has (numerically) zero broken seminorm,
        i.e. it projects to a piecewise linear field.
    """
    denom, num, scale = seminorm_terms(
        kernels, exact.coefficients, exact.coefficients - discrete.coefficients
    )
    if denom <= LINEAR_NOISE * scale:
        raise ZeroSeminormError("reference projection is piecewise linear")
    return num / denom


def relative_or_absolute_error(
    kernels: list[KernelGroup],
    exact: ProjectedField,
    discrete: ProjectedField,
) -> float:
    """:func:`error_2h`, or the absolute error when the reference is linear.

    Falls back to the absolute broken seminorm of the difference whenever
    the reference seminorm sits at rounding-noise level, which keeps
    consistency sweeps meaningful for linear solutions. Both seminorms
    come from one :func:`seminorm_terms` pass.
    """
    denom, num, scale = seminorm_terms(
        kernels, exact.coefficients, exact.coefficients - discrete.coefficients
    )
    return num if denom <= LINEAR_NOISE * scale else num / denom


@dataclass
class ConvergenceRecord:
    """One row of a refinement study."""

    family: str
    n: int
    h: float
    n_dofs: int
    error: float
    rate_h: float  # vs previous row; nan on the first
    rate_dofs: float

    def as_csv_row(self) -> str:
        return (
            f"{self.family},{self.n},{self.h:.12g},{self.n_dofs},"
            f"{self.error:.12g},{self.rate_h:.12g},{self.rate_dofs:.12g}"
        )


CSV_HEADER = "family,n,h,ndof,error2h,rate_h,rate_dof"


def pairwise_rates(records: list[ConvergenceRecord]) -> None:
    """Fill the consecutive-pair rate columns in place."""
    for i, rec in enumerate(records):
        if i == 0:
            rec.rate_h = float("nan")
            rec.rate_dofs = float("nan")
            continue
        prev = records[i - 1]
        rec.rate_h = float(
            np.log(prev.error / rec.error) / np.log(prev.h / rec.h)
        )
        rec.rate_dofs = float(
            np.log(prev.error / rec.error) / np.log(rec.n_dofs / prev.n_dofs)
        )


def windowed_rate(records: list[ConvergenceRecord], versus: str = "h") -> float:
    """Least-squares slope of log(error) over the whole study window.

    ``versus='h'`` fits against log h (positive slope for convergence);
    ``versus='dofs'`` fits against log n_dofs and negates, so both
    conventions report a positive order of convergence.
    """
    errs = np.log([r.error for r in records])
    if versus == "h":
        x = np.log([r.h for r in records])
        return float(np.polyfit(x, errs, 1)[0])
    x = np.log([r.n_dofs for r in records])
    return float(-np.polyfit(x, errs, 1)[0])


def measured_error(solver: PlateSolver, solution: np.ndarray, exact, exact_grad) -> float:
    """:func:`relative_or_absolute_error` of a solution of ``solver``
    against the smooth field given by ``exact`` and ``exact_grad``, both
    projected on the solver's kernel groups."""
    proj_u = project_exact(solver.mesh, solver.kernels, exact, exact_grad)
    proj_uh = project_solution(solver.mesh, solver.kernels, solver.dofmap, solution)
    return relative_or_absolute_error(solver.kernels, proj_u, proj_uh)


# Largest refinement index of any mesh a study or a command builds.
MAX_REFINEMENT = 8


def check_order(order: int) -> None:
    """Raise ``ValueError`` unless the method is implemented at ``order``."""
    if order not in (2, 3, 4, 5):
        raise ValueError("order must be one of 2, 3, 4, 5")


def check_study_range(order: int, n_max: int) -> None:
    """Raise ``ValueError`` unless ``convergence_study`` accepts the pair."""
    check_order(order)
    if not 0 <= n_max <= (4 if order == 5 else MAX_REFINEMENT):
        raise ValueError("n_max out of range for this order")


def convergence_study(
    family: str,
    order: int,
    n_max: int,
    material: MaterialParams = DEFAULT_MATERIAL,
    seed: int = 0,
) -> list[ConvergenceRecord]:
    """Refinement study for the reference displacement on one mesh family.

    Runs refinement indices 0..n_max, records the relative projected error,
    and fills both pairwise rate columns.
    """
    check_study_range(order, n_max)
    f = manufactured.load(material)
    records = []
    for n in range(n_max + 1):
        mesh = build_family(family, n, seed)
        solver = PlateSolver(mesh, order, material)
        solution = solver.solve(f, BoundarySpec.clamped())
        err = measured_error(solver, solution, manufactured.displacement, manufactured.gradient)
        records.append(
            ConvergenceRecord(
                family, n, mesh.h, solver.n_dofs, err, float("nan"), float("nan")
            )
        )
    pairwise_rates(records)
    return records


def write_csv(records: list[ConvergenceRecord], path) -> None:
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for rec in records:
            fh.write(rec.as_csv_row() + "\n")


def write_plot_data(records: list[ConvergenceRecord], path) -> None:
    """Log-log pairs (h, error), one per line, for external plotting."""
    with open(path, "w") as fh:
        for rec in records:
            fh.write(f"{rec.h:.12g} {rec.error:.12g}\n")
