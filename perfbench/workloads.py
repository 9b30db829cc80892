"""The benchmark's workloads: their inputs, the timed solve loop and the output checks.

Everything here goes through the library's stable API: ``build_family``,
``PlateSolver(...)`` with its public ``solve``, ``kernels``, ``dofmap``,
``matrix``, ``free`` and ``constrained``, ``assembly.assemble_load`` for the
reference load of the backward-error check, and ``convergence.project_exact``,
``project_solution`` and ``error_2h``. Functions are looked up through their
modules at call time, so the traced pass sees the wrappers it installs.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from platevem import assembly, convergence, generators, manufactured
from platevem.assembly import BoundarySpec, SolverError
from platevem.local import ProjectorError
from platevem.mesh import MeshError
from platevem.plate import DEFAULT_MATERIAL

MATERIAL = DEFAULT_MATERIAL
# Errors the library classifies; a solve raising one of them counts as failed.
CLASSIFIED_ERRORS = (SolverError, ProjectorError, MeshError)
# The solver's own refinement target for the normwise backward error.
BACKWARD_ERROR_GATE = 1e-10
# Patch-test gate of the acceptance suite (criterion 3).
PATCH_GATE = 1e-8
# Degree of the random polynomial solutions; their plate load vanishes.
POLYNOMIAL_DEGREE = 3


@dataclass(frozen=True)
class Workload:
    """One benchmark case: a mesh family and size, an order and its loads.

    ``loads`` is the number of solves per set-up; every solve after the
    first reuses the solver and is timed for ``resolve_s``. With
    ``polynomial_loads`` each is a seeded random cubic with strong boundary
    data, checked by the patch gate; otherwise each solves the manufactured
    clamped problem and its ``error_2h`` is checked against
    ``references[n] = (value, relative tolerance)``.
    """

    name: str
    family: str
    n: int
    order: int
    loads: int
    polynomial_loads: bool
    references: dict = field(default_factory=dict)


# Why these three: each is sized so that one layer a planned optimisation
# targets does most of its work, while that layer does little in another,
# and small enough that a run repeats its set-up several times: on a shared
# machine only medians over repeats spread across the run are steady.
WORKLOADS = {
    w.name: w
    for w in (
        # Kernel-bound: 1600 quadrilaterals at order 2 spend about two thirds
        # of the time to solution in the per-cell kernels and a few percent
        # in the factorization. The only family whose mesh depends on the
        # seed, so the reference tolerance covers error_2h over random meshes.
        Workload(
            "randomquad-o2", "randomquad", 4, 2, 4, False,
            {4: (9.4e-2, 0.08), 0: (0.79, 0.3)},
        ),
        # Fill-bound: order 5 on 400 non-convex octagons gives a factor with
        # about 17M stored entries; the factorization is about a third of the
        # time to solution and sets the peak memory.
        Workload(
            "octagonal-o5", "octagonal", 2, 5, 4, False,
            {2: (7.361666e-5, 1e-6), 0: (1.6138236e-2, 1e-6)},
        ),
        # Reuse: one small solver, then many loads; kernels and factorization
        # are paid once and the per-load path dominates.
        Workload("hexagonal-o3-loads", "hexagonal", 2, 3, 24, True),
    )
}


class Polynomial2D:
    """A bivariate polynomial of degree <= 3 with its gradient as callbacks.

    Values and gradients come from one table of the monomials at the points,
    which keeps the callbacks cheap next to the solver's own per-load work.
    """

    exponents = np.array([(p, q) for p in range(POLYNOMIAL_DEGREE + 1)
                          for q in range(POLYNOMIAL_DEGREE + 1 - p)])

    def __init__(self, coeffs: np.ndarray):
        self.coeffs = coeffs  # one per row of ``exponents``
        index = {tuple(e): k for k, e in enumerate(self.exponents)}
        self.grad_coeffs = np.zeros((len(coeffs), 2))
        for c, (p, q) in zip(coeffs, self.exponents):
            if p:
                self.grad_coeffs[index[(p - 1, q)], 0] += p * c
            if q:
                self.grad_coeffs[index[(p, q - 1)], 1] += q * c

    def _table(self, x, y):
        x = np.asarray(x, dtype=float)[..., None]
        y = np.asarray(y, dtype=float)[..., None]
        return x ** self.exponents[:, 0] * y ** self.exponents[:, 1]

    def value(self, x, y):
        return self._table(x, y) @ self.coeffs

    def gradient(self, x, y):
        g = self._table(x, y) @ self.grad_coeffs
        return g[..., 0], g[..., 1]


def zero_load(x, y):
    """Plate load of a polynomial of degree <= 3: its bilaplacian vanishes."""
    return np.zeros_like(np.asarray(x, dtype=float))


@dataclass
class Problem:
    """One load: source density, boundary data and the exact solution."""

    f: object
    bc: BoundarySpec
    w: object
    grad: object
    load_is_zero: bool


def make_problems(workload: Workload, seed: int) -> list[Problem]:
    """The loads of one set-up; the same seed gives the same loads."""
    if not workload.polynomial_loads:
        f = manufactured.load(MATERIAL)
        problem = Problem(
            f, BoundarySpec.clamped(), manufactured.displacement,
            manufactured.gradient, False,
        )
        return [problem] * workload.loads
    rng = np.random.default_rng(seed)
    problems = []
    for _ in range(workload.loads):
        poly = Polynomial2D(rng.standard_normal(len(Polynomial2D.exponents)))
        problems.append(Problem(
            zero_load, BoundarySpec.dirichlet(poly.value, poly.gradient),
            poly.value, poly.gradient, True,
        ))
    return problems


@dataclass
class Timed:
    """What the timed phase of one set-up produced."""

    started: float  # perf_counter at the start of mesh generation
    setup_s: float
    time_to_solution_s: float
    resolve_s: list  # per load after the first
    wall_s: float
    mesh: object = None
    solver: object = None
    solutions: list = field(default_factory=list)  # vector or None per load
    errors: list = field(default_factory=list)  # error_2h or None per load
    failures: dict = field(default_factory=dict)  # load index -> messages


def solve_phase(workload: Workload, n: int, seed: int, problems: list[Problem]) -> Timed:
    """Build the mesh and solver and solve every load; the timed work.

    Closed loop: one solve at a time, each started when the last is done.
    A classified error fails the solve (or, during set-up, every solve).
    """
    t0 = time.perf_counter()
    try:
        mesh = generators.build_family(workload.family, n, seed)
        solver = assembly.PlateSolver(mesh, workload.order, MATERIAL)
    except CLASSIFIED_ERRORS as exc:
        elapsed = time.perf_counter() - t0
        out = Timed(t0, elapsed, elapsed, [], elapsed)
        out.solutions = [None] * len(problems)
        out.errors = [None] * len(problems)
        out.failures = {
            k: [f"set-up: {type(exc).__name__}: {exc}"] for k in range(len(problems))
        }
        return out
    t_setup = time.perf_counter()
    ends = []
    out = Timed(t0, t_setup - t0, 0.0, [], 0.0, mesh, solver)
    for k, p in enumerate(problems):
        t = time.perf_counter()
        try:
            x = solver.solve(p.f, p.bc)
            exact = convergence.project_exact(mesh, solver.kernels, p.w, p.grad)
            discrete = convergence.project_solution(
                mesh, solver.kernels, solver.dofmap, x
            )
            err = convergence.error_2h(solver.kernels, exact, discrete)
        except CLASSIFIED_ERRORS as exc:
            x, err = None, None
            out.failures[k] = [f"{type(exc).__name__}: {exc}"]
        ends.append(time.perf_counter())
        if k:
            out.resolve_s.append(ends[-1] - t)
        out.solutions.append(x)
        out.errors.append(err)
    out.time_to_solution_s = ends[0] - t0
    out.wall_s = ends[-1] - t0
    return out


def size_counts(mesh, solver) -> dict:
    """Problem-size counts that must repeat exactly for a given code and seed."""
    counts = {
        "mesh.cells": mesh.n_cells,
        "mesh.edges": mesh.n_edges,
        "mesh.vertices": mesh.n_vertices,
        "assembly.n_dofs": int(solver.n_dofs),
        "assembly.n_free": int(len(solver.free)),
        "assembly.nnz_A": int(solver.matrix.nnz),
    }
    by_nverts = Counter(len(c) for c in mesh.cells)
    for m in sorted(by_nverts):
        counts[f"local.cells_by_nverts.{m}"] = by_nverts[m]
    return counts


@dataclass
class Checked:
    """Outcome of the output checks on one set-up."""

    attempted: int
    failures: dict  # load index -> messages; a load with any message failed
    backward_errors: list
    errors: list
    counts: dict


class ReducedSystem:
    """Free/constrained blocks of the public full matrix, for residual checks."""

    def __init__(self, matrix, free, constrained):
        rows = matrix[free]
        self.free, self.constrained = free, constrained
        self.a_ff = rows[:, free]
        self.a_fc = rows[:, constrained]
        self.a_norm = spla.norm(self.a_ff, 1)

    def backward_error(self, load, x) -> float:
        """Normwise ``|r| / (|A_ff| |x_f| + |b_f - A_fc x_c|)``.

        The quantity the solver's refinement loop stops on.
        """
        rhs = load[self.free] - self.a_fc @ x[self.constrained]
        res = float(np.linalg.norm(rhs - self.a_ff @ x[self.free]))
        denom = self.a_norm * float(np.linalg.norm(x[self.free])) + float(np.linalg.norm(rhs))
        if denom == 0.0:
            return 0.0 if res == 0.0 else float("inf")
        return res / denom


def check_phase(workload: Workload, n: int, problems: list[Problem], timed: Timed) -> Checked:
    """Check every solve of one set-up; releases the solver before checking.

    Each solve must meet the backward-error gate on its reduced system, and
    either the patch gate (polynomial loads) or the stored error_2h
    reference (manufactured load).
    """
    failures = {k: list(v) for k, v in timed.failures.items()}
    if timed.solver is None:
        return Checked(len(problems), failures, [], [], {})
    mesh, solver = timed.mesh, timed.solver
    counts = size_counts(mesh, solver)
    loads = {}
    for p in problems:
        if id(p.f) not in loads:
            loads[id(p.f)] = (
                np.zeros(solver.n_dofs) if p.load_is_zero
                else assembly.assemble_load(mesh, solver.kernels, solver.dofmap, p.f)
            )
    matrix, free, constrained = solver.matrix, solver.free, solver.constrained
    # Drop the solver (and its factor) first, so that the checks do not
    # raise the peak memory of the run above the solve's own.
    timed.solver = None
    del solver
    system = ReducedSystem(matrix, free, constrained)
    reference = workload.references.get(n)
    backward, errors = [], []
    for k, (p, x, err) in enumerate(zip(problems, timed.solutions, timed.errors)):
        if x is None:
            continue
        be = system.backward_error(loads[id(p.f)], x)
        backward.append(be)
        errors.append(err)
        issues = []
        if not be <= BACKWARD_ERROR_GATE:
            issues.append(f"backward error {be:.3e} > {BACKWARD_ERROR_GATE:.0e}")
        if workload.polynomial_loads:
            if not err <= PATCH_GATE:
                issues.append(f"patch error {err:.3e} > {PATCH_GATE:.0e}")
        elif reference is None:
            issues.append(f"no error_2h reference for n={n}")
        elif not abs(err - reference[0]) <= reference[1] * reference[0]:
            issues.append(
                f"error_2h {err:.6e} outside {reference[0]:.6e} +- {100 * reference[1]:g}%"
            )
        if issues:
            failures[k] = issues
    return Checked(len(problems), failures, backward, errors, counts)


def warm_up(workload: Workload) -> float:
    """One untimed, unchecked n = 0 solve that fills the Gauss-Legendre and
    basis caches; returns its duration."""
    t0 = time.perf_counter()
    solve_phase(workload, 0, 0, make_problems(workload, 0)[:1])
    return time.perf_counter() - t0
