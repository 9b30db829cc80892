"""Command-line front end: mesh generation, solves, studies, and sweeps.

Exit codes classify failures: 2 configuration, 3 mesh construction,
4 assembly/local kernels, 5 linear solver, 6 file i/o. The output directory
defaults to the current directory and can be overridden with the
``PLATEVEM_OUTDIR`` environment variable; every output path (``--out``,
``--dump-matrix``, ``--plot-data``) that is relative resolves under it, and
its parent directory is created.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import convergence as cv
from . import generators, manufactured, morley
from .assembly import AssemblyError, BoundarySpec, PlateSolver, SolverError
from .local import ProjectorError
from .mesh import MeshError, MeshIOError, write_mesh
from .plate import MaterialParams

EXIT_CONFIG = 2
EXIT_MESH = 3
EXIT_ASSEMBLY = 4
EXIT_SOLVER = 5
EXIT_IO = 6


class ConfigError(Exception):
    """Invalid command-line or config-file input."""


def _read_config_file(path: str) -> dict:
    """Parse a simple key=value file (same keys as the long flags)."""
    out = {}
    try:
        with open(path) as fh:
            for line_no, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{line_no}: expected key=value")
                key, value = line.split("=", 1)
                out[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="platevem",
        description="Polygonal virtual element solver for the clamped plate",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_order=True):
        p.add_argument("--config", help="key=value file supplying defaults")
        p.add_argument(
            "--family",
            choices=generators.FAMILIES,
            help="mesh family",
        )
        if with_order:
            p.add_argument("--order", type=int, help="method order, 2..5")
        p.add_argument("--poisson", type=float, default=None, help="Poisson ratio (default 0.3)")
        p.add_argument("--rigidity", type=float, default=None, help="bending rigidity (default 1.0)")
        p.add_argument("--seed", type=int, default=None, help="seed for randomized meshes (default 0)")
        p.add_argument("--out", help="output file, relative to PLATEVEM_OUTDIR")

    p_mesh = sub.add_parser("mesh", help="generate a mesh and write it as JSON")
    add_common(p_mesh, with_order=False)
    p_mesh.add_argument("--n", type=int, help="refinement index")
    p_mesh.add_argument("--notch", type=float, default=None, help="octagonal notch ratio in (0, 0.5)")

    p_solve = sub.add_parser("solve", help="solve the benchmark problem on one mesh")
    add_common(p_solve)
    p_solve.add_argument("--n", type=int, help="refinement index")
    p_solve.add_argument(
        "--dump-matrix",
        help="also write the full matrix, over all unknowns, in coordinate format",
    )

    p_study = sub.add_parser("study", help="run a refinement study and write CSV")
    add_common(p_study)
    p_study.add_argument("--nmax", type=int, help="last refinement index")
    p_study.add_argument("--plot-data", help="also write log-log (h, error) pairs")

    p_patch = sub.add_parser("patch", help="consistency sweep over monomial solutions")
    add_common(p_patch)
    p_patch.add_argument("--n", type=int, help="refinement index")

    p_morley = sub.add_parser(
        "morley-compare", help="compare the order-2 method with the triangular oracle"
    )
    add_common(p_morley, with_order=False)
    p_morley.add_argument("--n", type=int, help="refinement index")

    return parser


def _merge_config(args) -> None:
    """Fill unset flags from the optional config file."""
    if not getattr(args, "config", None):
        return
    file_values = _read_config_file(args.config)
    casts = {
        "n": int,
        "nmax": int,
        "order": int,
        "seed": int,
        "poisson": float,
        "rigidity": float,
        "notch": float,
    }
    for key, value in file_values.items():
        if not hasattr(args, key):
            raise ConfigError(f"unknown config key {key!r}")
        if getattr(args, key) is None:
            cast = casts.get(key, str)
            try:
                setattr(args, key, cast(value))
            except ValueError as exc:
                raise ConfigError(f"config key {key}: {exc}") from exc


# Admissible values of the numeric options and the mesh family, checked
# before any work starts: a config file sets them unchecked by argparse.
# NaN fails every comparison and so every range. A notch ratio of 0.5 or
# more is finite and positive but folds the octagon; the generator rejects
# it as a mesh construction error.
_RANGES = {
    "n": (
        lambda v: 0 <= v <= cv.MAX_REFINEMENT,
        f"a nonnegative integer at most {cv.MAX_REFINEMENT}",
    ),
    "seed": (lambda v: v >= 0, "a nonnegative integer"),
    "poisson": (lambda v: 0.0 <= v < 0.5, "in [0, 0.5)"),
    "rigidity": (lambda v: 0.0 < v < np.inf, "positive and finite"),
    "notch": (lambda v: 0.0 < v < np.inf, "positive and finite"),
    "family": (lambda v: v in generators.FAMILIES, f"one of {', '.join(generators.FAMILIES)}"),
}


def _check_ranges(args) -> None:
    for name, (admissible, what) in _RANGES.items():
        value = getattr(args, name, None)
        if value is not None and not admissible(value):
            raise ConfigError(f"--{name} must be {what}, got {value}")


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise ConfigError(f"missing required option --{name.replace('_', '-')}")


def _material(args) -> MaterialParams:
    poisson = 0.3 if args.poisson is None else args.poisson
    rigidity = 1.0 if args.rigidity is None else args.rigidity
    try:
        return MaterialParams.from_rigidity(rigidity, poisson)
    except ValueError as exc:  # a rigidity so large that the modulus overflows
        raise ConfigError(f"--rigidity {rigidity} with --poisson {poisson}: {exc}") from exc


def _out_path(name: str) -> Path:
    """Where an output file goes: a relative ``name`` under
    ``PLATEVEM_OUTDIR`` (the current directory if unset), with its parent
    directory created."""
    path = Path(os.environ.get("PLATEVEM_OUTDIR", ".")) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _config_check(check, *values) -> None:
    """Run a library range check, reporting its ``ValueError`` as a
    configuration error."""
    try:
        check(*values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build_mesh(args):
    family = args.family
    n = args.n
    seed = 0 if args.seed is None else args.seed
    if family == "octagonal" and getattr(args, "notch", None) is not None:
        return generators.nonconvex_octagonal_mesh(generators.resolution(n), args.notch)
    return generators.build_family(family, n, seed)


def _cmd_mesh(args) -> int:
    _require(args, "family", "n")
    mesh = _build_mesh(args)
    path = _out_path(args.out or f"{args.family}_n{args.n}.json")
    write_mesh(mesh, path)
    print(
        f"wrote {path}: {mesh.n_cells} cells, {mesh.n_edges} edges, "
        f"{mesh.n_vertices} vertices, h = {mesh.h:.6g}"
    )
    return 0


def _cmd_solve(args) -> int:
    _require(args, "family", "n", "order")
    _config_check(cv.check_order, args.order)
    material = _material(args)
    mesh = _build_mesh(args)
    solver = PlateSolver(mesh, args.order, material)
    solution = solver.solve(manufactured.load(material), BoundarySpec.clamped())
    err = cv.measured_error(solver, solution, manufactured.displacement, manufactured.gradient)
    if args.dump_matrix:
        from .assembly import dump_matrix

        dump_matrix(solver.matrix, _out_path(args.dump_matrix))
    path = _out_path(args.out or f"solution_{args.family}_n{args.n}_o{args.order}.json")
    with open(path, "w") as fh:
        json.dump(
            {
                "family": args.family,
                "n": args.n,
                "order": args.order,
                "n_dofs": solver.n_dofs,
                "h": mesh.h,
                "error_2h": err,
                "nnz_factor": solver.nnz_factor,
                "pivot_ratio": solver.factor.pivot_ratio,
                "refine_steps": solver.refine_steps,
                "dofs": solution.tolist(),
            },
            fh,
        )
    print(f"wrote {path}: {solver.n_dofs} unknowns, error {err:.6e}")
    return 0


def _cmd_study(args) -> int:
    _require(args, "family", "order", "nmax")
    _config_check(cv.check_study_range, args.order, args.nmax)
    material = _material(args)
    seed = 0 if args.seed is None else args.seed
    records = cv.convergence_study(args.family, args.order, args.nmax, material, seed)
    path = _out_path(args.out or f"study_{args.family}_o{args.order}.csv")
    cv.write_csv(records, path)
    if args.plot_data:
        cv.write_plot_data(records, _out_path(args.plot_data))
    rate = cv.windowed_rate(records)
    rate_d = cv.windowed_rate(records, "dofs")
    print(f"wrote {path}: {len(records)} rows, rate vs h {rate:.3f}, vs unknowns {rate_d:.3f}")
    return 0


def _cmd_patch(args) -> int:
    _require(args, "family", "n", "order")
    _config_check(cv.check_order, args.order)
    material = _material(args)
    mesh = _build_mesh(args)
    solver = PlateSolver(mesh, args.order, material)
    worst = 0.0
    for p, q in manufactured.monomial_exponent_pairs(args.order):
        u, grad, f = manufactured.monomial_solution(p, q, material)
        solution = solver.solve(f, BoundarySpec.dirichlet(u, grad))
        worst = max(worst, cv.measured_error(solver, solution, u, grad))
    path = _out_path(args.out or f"patch_{args.family}_n{args.n}_o{args.order}.json")
    with open(path, "w") as fh:
        json.dump({"family": args.family, "n": args.n, "order": args.order, "max_error": worst}, fh)
    print(f"wrote {path}: max consistency error {worst:.6e}")
    return 0


def _cmd_morley_compare(args) -> int:
    _require(args, "n")
    if args.family not in (None, "crisscross"):
        raise ConfigError("the triangular oracle runs on the crisscross family")
    material = _material(args)
    mesh = generators.build_family("crisscross", args.n)
    f = manufactured.load(material)
    solver = PlateSolver(mesh, 2, material)
    vem = solver.solve(f, BoundarySpec.clamped())
    oracle, _ = morley.morley_solve(mesh, material, f)
    scale = float(np.abs(vem).max())
    discrepancy = float(np.abs(vem - oracle).max()) / scale if scale > 0 else 0.0
    path = _out_path(args.out or f"morley_compare_n{args.n}.json")
    with open(path, "w") as fh:
        json.dump({"n": args.n, "max_relative_discrepancy": discrepancy}, fh)
    print(f"wrote {path}: max relative discrepancy {discrepancy:.6e}")
    return 0


_COMMANDS = {
    "mesh": _cmd_mesh,
    "solve": _cmd_solve,
    "study": _cmd_study,
    "patch": _cmd_patch,
    "morley-compare": _cmd_morley_compare,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _merge_config(args)
        _check_ranges(args)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (MeshError, morley.MorleyError) as exc:
        print(f"mesh error: {exc}", file=sys.stderr)
        return EXIT_MESH
    except (AssemblyError, ProjectorError) as exc:
        print(f"assembly error: {exc}", file=sys.stderr)
        return EXIT_ASSEMBLY
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (MeshIOError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
