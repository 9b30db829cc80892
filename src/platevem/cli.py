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
from typing import Callable, NamedTuple

import numpy as np

from . import convergence as cv
from . import generators, manufactured, morley
from .assembly import AssemblyError, BoundarySpec, PlateSolver, SolverError, dump_matrix
from .local import ProjectorError
from .mesh import MeshError, MeshIOError, write_mesh
from .plate import DEFAULT_MATERIAL, MaterialParams

EXIT_CONFIG = 2
EXIT_MESH = 3
EXIT_ASSEMBLY = 4
EXIT_SOLVER = 5
EXIT_IO = 6


class ConfigError(Exception):
    """Invalid command-line or config-file input."""


def _read_config_file(path: str) -> dict:
    """Parse a simple key=value file (same keys as the long flags), each key
    once; config files do not nest, so a ``config`` key is an error."""
    out, seen = {}, {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{line_no}: expected key=value")
                key, value = line.split("=", 1)
                key = key.strip().replace("-", "_")
                if key == "config":
                    raise ConfigError(f"{path}:{line_no}: config files do not nest")
                if key in seen:
                    raise ConfigError(f"{path}: key {key!r} on lines {seen[key]} and {line_no}")
                out[key], seen[key] = value.strip(), line_no
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return out


class _Option(NamedTuple):
    """An option's argparse type, help and choices, and the values it admits with
    their wording, which :func:`_check_options` checks on flags and config keys alike."""

    help: str
    type: type = str
    admits: Callable = lambda value: True
    what: str = ""
    choices: tuple | None = None


def _one_of(help: str, values: tuple, type: type = str) -> _Option:
    return _Option(help, type, values.__contains__, f"one of {', '.join(map(str, values))}", values)


# NaN fails every comparison and so every range. A notch ratio of 0.5 or
# more is finite and positive but folds the octagon; the generator rejects
# it as a mesh construction error. The Poisson ratio and the rigidity are
# checked by ``MaterialParams`` alone.
_OPTIONS = {
    "config": _Option("key=value file supplying defaults"),
    "family": _one_of("mesh family", generators.FAMILIES),
    "order": _one_of("method order", (2, 3, 4, 5), int),
    "poisson": _Option("Poisson ratio (default 0.3)", float),
    "rigidity": _Option("bending rigidity (default 1.0)", float),
    "seed": _Option(
        "seed for randomized meshes (default 0)", int, lambda v: v >= 0, "a nonnegative integer"
    ),
    "out": _Option("output file, relative to PLATEVEM_OUTDIR"),
    "n": _Option(
        "refinement index",
        int,
        lambda v: 0 <= v <= cv.MAX_REFINEMENT,
        f"a nonnegative integer at most {cv.MAX_REFINEMENT}",
    ),
    "notch": _Option(
        "octagonal notch ratio in (0, 0.5)", float, lambda v: 0 < v < np.inf, "positive and finite"
    ),
    "dump_matrix": _Option("also write the full matrix, over all unknowns, in coordinate format"),
    "nmax": _Option("last refinement index", int),
    "plot_data": _Option("also write log-log (h, error) pairs"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="platevem",
        description="Polygonal virtual element solver for the clamped plate",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for key in command.options:
            flag, option = f"--{key.replace('_', '-')}", _OPTIONS[key]
            p.add_argument(flag, type=option.type, choices=option.choices, help=option.help)
    return parser


def _merge_config(args) -> None:
    """Fill unset flags from the optional config file."""
    if not args.config:
        return
    for key, value in _read_config_file(args.config).items():
        if key not in _COMMANDS[args.command].options:
            raise ConfigError(f"unknown config key {key!r}")
        if getattr(args, key) is None:
            try:
                setattr(args, key, _OPTIONS[key].type(value))
            except ValueError as exc:
                raise ConfigError(f"config key {key}: {exc}") from exc


def _check_options(args) -> None:
    """Reject an inadmissible value, then a missing required option, before
    any work starts."""
    command = _COMMANDS[args.command]
    for key in command.options:
        value, option = getattr(args, key), _OPTIONS[key]
        if value is not None and not option.admits(value):
            raise ConfigError(f"--{key} must be {option.what}, got {value}")
    for key in command.required:
        if getattr(args, key) is None:
            raise ConfigError(f"missing required option --{key}")


def _material(args) -> MaterialParams:
    poisson = DEFAULT_MATERIAL.poisson if args.poisson is None else args.poisson
    rigidity = DEFAULT_MATERIAL.rigidity if args.rigidity is None else args.rigidity
    try:
        return MaterialParams(rigidity, poisson)
    except ValueError as exc:
        raise ConfigError(f"--rigidity {rigidity} with --poisson {poisson}: {exc}") from exc


def _out_path(name: str) -> Path:
    """Where an output file goes: a relative ``name`` under
    ``PLATEVEM_OUTDIR`` (the current directory if unset), with its parent
    directory created."""
    path = Path(os.environ.get("PLATEVEM_OUTDIR", ".")) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _build_mesh(args):
    notch = getattr(args, "notch", None)
    if notch is None:
        return generators.build_family(args.family, args.n, 0 if args.seed is None else args.seed)
    if args.family != "octagonal":
        raise ConfigError(f"--notch applies to the octagonal family only, not {args.family}")
    return generators.nonconvex_octagonal_mesh(generators.resolution(args.n), notch)


def _cmd_mesh(args) -> int:
    mesh = _build_mesh(args)
    path = _out_path(args.out or f"{args.family}_n{args.n}.json")
    write_mesh(mesh, path)
    print(
        f"wrote {path}: {mesh.n_cells} cells, {mesh.n_edges} edges, "
        f"{mesh.n_vertices} vertices, h = {mesh.h:.6g}"
    )
    return 0


def _cmd_solve(args) -> int:
    material = _material(args)
    mesh = _build_mesh(args)
    solver = PlateSolver(mesh, args.order, material)
    solution = solver.solve(manufactured.load(material), BoundarySpec.clamped())
    err = cv.measured_error(solver, solution, manufactured.displacement, manufactured.gradient)
    if args.dump_matrix:
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
                "nnz_factor": solver.factor.nnz,
                "pivot_ratio": solver.factor.pivot_ratio,
                "refine_steps": solver.refine_steps,
                "dofs": solution.tolist(),
            },
            fh,
        )
    print(f"wrote {path}: {solver.n_dofs} unknowns, error {err:.6e}")
    return 0


def _cmd_study(args) -> int:
    try:
        cv.check_study_range(args.order, args.nmax)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
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


class _Command(NamedTuple):
    """A command's handler, its help, the options it reads (all its parser
    takes) and those of them it cannot run without, in the order checked."""

    run: Callable[[argparse.Namespace], int]
    help: str
    options: tuple[str, ...]
    required: tuple[str, ...]


_SOLVE = ("config", "family", "order", "poisson", "rigidity", "seed", "out")
_COMMANDS = {
    "mesh": _Command(
        _cmd_mesh,
        "generate a mesh and write it as JSON",
        ("config", "family", "seed", "out", "n", "notch"),
        ("family", "n"),
    ),
    "solve": _Command(
        _cmd_solve,
        "solve the benchmark problem on one mesh",
        _SOLVE + ("n", "dump_matrix"),
        ("family", "n", "order"),
    ),
    "study": _Command(
        _cmd_study,
        "run a refinement study and write CSV",
        _SOLVE + ("nmax", "plot_data"),
        ("family", "order", "nmax"),
    ),
    "patch": _Command(
        _cmd_patch,
        "consistency sweep over monomial solutions",
        _SOLVE + ("n",),
        ("family", "n", "order"),
    ),
    "morley-compare": _Command(
        _cmd_morley_compare,
        "compare the order-2 method with the triangular oracle",
        ("config", "poisson", "rigidity", "out", "n"),
        ("n",),
    ),
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _merge_config(args)
        _check_options(args)
        return _COMMANDS[args.command].run(args)
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
