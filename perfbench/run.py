#!/usr/bin/env python3
"""platevem benchmark runner.

Run from the root of a checkout:

    python3 perfbench/run.py --workload randomquad-o2 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

One process runs one workload as a closed loop (one solve at a time) with
BLAS threads capped at the number of usable cores. It warms up with an
n = 0 solve, then repeats set-ups (mesh, solver, every load of the
workload) while another repeat still fits in ``--seconds``; at least one
always runs. Every solve is checked; a classified error or a failed check
counts as a failed solve.

``--trace 0`` reports the end-to-end metrics: medians over the repeats, and
for ``resolve_s`` over every load after the first of each set-up.
``--trace 1`` runs one untraced set-up, then one traced set-up with spans
recorded at every layer boundary, and reports the per-layer metrics; the
untraced one gives the tracing overhead. The last line of standard output
is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. A record with the environment, the exact counts and the
checks is written under ``.bench_out/``, next to the spans of a traced run.

``--smoke`` runs every workload of ``BENCHMARK.json`` at n = 0 through both
passes and checks the output schema and metric names.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SPEC = ROOT / "BENCHMARK.json"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NVERTS = range(3, 9)  # vertex counts of the cells the four mesh families produce
MAX_FAILURES_SHOWN = 20

# Per-layer metrics: name -> unit. ``<span>_s`` is the summed self time of
# the span (its time minus that of the traced calls it made), except
# ``local.kernels_s``, the inclusive time of the whole per-cell kernel stage.
PER_LAYER = {
    "generators.build_s": "s",
    "mesh.derive_topology_s": "s",
    "geometry.star_point_s": "s",
    "mesh.cells": "count",
    "mesh.edges": "count",
    "mesh.vertices": "count",
    "local.kernels_s": "s",
    "local.us_per_cell": "us",
    "local.projector_s": "s",
    "local.dof_matrix_s": "s",
    "local.moment_operator_s": "s",
    "local.stiffness_s": "s",
    **{f"local.cells_by_nverts.{m}": "count" for m in NVERTS},
    "polynomials.eval_calls": "count",
    "polynomials.eval_s": "s",
    "polynomials.edge_restriction_calls": "count",
    "polynomials.edge_restriction_s": "s",
    "polynomials.derivative_matrix_calls": "count",
    "polynomials.derivative_matrix_s": "s",
    "quadrature.polygon_rule_calls": "count",
    "quadrature.polygon_rule_s": "s",
    "quadrature.polygon_points": "count",
    "quadrature.edge_rule_calls": "count",
    "plate.grams_s": "s",
    "plate.edge_operators_s": "s",
    "assembly.dofmap_s": "s",
    "assembly.scatter_s": "s",
    "assembly.nnz_A": "count",
    "assembly.n_dofs": "count",
    "assembly.n_free": "count",
    "assembly.factor_calls": "count",
    "assembly.factor_s": "s",
    "assembly.nnz_LU": "count",
    "assembly.trisolve_calls": "count",
    "assembly.trisolve_s": "s",
    "assembly.refine_steps": "count",
    "assembly.backward_error": "ratio",
    "assembly.load_s": "s",
    "assembly.boundary_s": "s",
    "local.load_s": "s",
    "local.compute_dofs_calls": "count",
    "local.compute_dofs_s": "s",
    "convergence.project_exact_s": "s",
    "convergence.project_solution_s": "s",
    "convergence.error_s": "s",
    # Shares, each with its base: the factorization over the traced time to
    # solution, the kernel stage over the traced set-up and all its loads.
    "assembly.factor_share": "ratio",
    "local.kernels_share": "ratio",
    "trace.time_to_solution_s": "s",
    # Top-level spans' summed durations over the traced time to solution.
    "trace.coverage": "ratio",
    # Traced over untraced time to solution, minus one.
    "trace.overhead": "ratio",
}
END_TO_END = {
    "setup_s": "s",
    "time_to_solution_s": "s",
    "resolve_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--n", type=int, default=None,
                        help="refinement index; 0 or the workload's own (default)")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at n = 0, both passes, and check the output")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def cap_blas_threads() -> int:
    """Cap BLAS threads at the usable cores; must run before numpy loads."""
    threads = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def environment(blas_threads: int, seed: int, warmup_s: float) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
        "warmup_s": warmup_s,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(args, blas_threads: int) -> dict:
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}")
    workload = wl.WORKLOADS[args.workload]
    n = workload.n if args.n is None else args.n
    if n not in (0, workload.n):
        raise SystemExit(f"--n must be 0 or {workload.n} for {workload.name}")
    warmup_s = wl.warm_up(workload)
    problems = wl.make_problems(workload, args.seed)
    record = {
        "workload": workload.name, "n": n, "order": workload.order,
        "loads": workload.loads, "trace": args.trace,
        "env": environment(blas_threads, args.seed, warmup_s),
    }
    if args.trace:
        return traced_run(wl, workload, n, args.seed, problems, record)
    return untraced_run(wl, workload, n, args.seed, problems, args.seconds, record)


def summarise(checks: list, record: dict) -> tuple[int, int]:
    """Attempted and failed solves; failure messages and exact-count drift."""
    attempted = sum(c.attempted for c in checks)
    failed = sum(len(c.failures) for c in checks)
    record["failures"] = [
        f"set-up {i}, load {k}: {'; '.join(msgs)}"
        for i, c in enumerate(checks) for k, msgs in sorted(c.failures.items())
    ][:MAX_FAILURES_SHOWN]
    counts = [c.counts for c in checks if c.counts]
    record["counts"] = counts[0] if counts else {}
    record["counts_repeat"] = all(c == counts[0] for c in counts)
    backward = [b for c in checks for b in c.backward_errors]
    record["worst_backward_error"] = max(backward, default=None)
    record["error_2h"] = [e for c in checks for e in c.errors][:3]
    record["fail_ratio"] = failed / attempted
    return attempted, failed


def untraced_run(wl, workload, n, seed, problems, seconds, record) -> dict:
    timed, checks = [], []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        result = wl.solve_phase(workload, n, seed, problems)
        checks.append(wl.check_phase(workload, n, problems, result))
        timed.append(result)
        took = time.perf_counter() - t
        if time.perf_counter() - start + took > seconds:
            break
    attempted, failed = summarise(checks, record)
    resolve = [t for r in timed for t in r.resolve_s]
    record["repeats"] = [
        {"setup_s": r.setup_s, "time_to_solution_s": r.time_to_solution_s,
         "resolve_s": r.resolve_s, "wall_s": r.wall_s} for r in timed
    ]
    metrics = {
        "setup_s": statistics.median(r.setup_s for r in timed),
        "time_to_solution_s": statistics.median(r.time_to_solution_s for r in timed),
        # 0 only when every set-up failed, and then the run is not correct.
        "resolve_s": statistics.median(resolve) if resolve else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }
    return finish(record, attempted, failed, metrics, END_TO_END)


def traced_run(wl, workload, n, seed, problems, record) -> dict:
    import tracing

    baseline = wl.solve_phase(workload, n, seed, problems)
    checks = [wl.check_phase(workload, n, problems, baseline)]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        timed = wl.solve_phase(workload, n, seed, problems)
    finally:
        tracer.uninstall()
    checks.append(wl.check_phase(workload, n, problems, timed))
    attempted, failed = summarise(checks, record)
    record["missing_targets"] = tracer.missing
    traced_counts = {k: tracer.counts[k] for k in checks[-1].counts}
    if checks[-1].counts and traced_counts != checks[-1].counts:
        record["counts_repeat"] = False
    totals = tracer.totals()
    metrics = layer_metrics(tracer, totals, timed, baseline, checks[-1])
    record["counts"] = {
        **record["counts"], **dict(tracer.counts),
        **{k: v for k, v in metrics.items() if k.endswith("_calls")},
    }
    record["spans"] = {k: {"calls": c, "self_s": s, "incl_s": i} for k, (c, s, i) in totals.items()}
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"{record['workload']}-n{n}-seed{seed}.spans.npz")
    return finish(record, attempted, failed, metrics, PER_LAYER)


def layer_metrics(tracer, totals: dict, timed, baseline, checked) -> dict:
    def calls(span):
        return float(totals.get(span, (0, 0.0, 0.0))[0])

    def self_s(span):
        return totals.get(span, (0, 0.0, 0.0))[1]

    kernels_s = totals.get("local.kernels", (0, 0.0, 0.0))[2]
    tts = timed.time_to_solution_s
    solved = sum(x is not None for x in timed.solutions)
    out = {}
    for name in PER_LAYER:
        if name.endswith("_calls"):
            out[name] = calls(name[: -len("_calls")])
        elif name.endswith("_s"):
            out[name] = self_s(name[: -len("_s")])
        else:
            out[name] = float(tracer.counts.get(name, 0))
    cells = tracer.counts.get("mesh.cells", 0)
    out.update({
        "local.kernels_s": kernels_s,
        "local.us_per_cell": 1e6 * kernels_s / cells if cells else 0.0,
        "assembly.refine_steps": calls("assembly.trisolve") - solved,
        "assembly.backward_error": max(checked.backward_errors, default=0.0),
        "assembly.factor_share": self_s("assembly.factor") / tts,
        "local.kernels_share": kernels_s / timed.wall_s,
        "trace.time_to_solution_s": tts,
        "trace.coverage": tracer.root_time(timed.started, timed.started + tts) / tts,
        "trace.overhead": tts / baseline.time_to_solution_s - 1.0,
    })
    return out


def finish(record, attempted, failed, values, units) -> dict:
    correct = failed == 0 and record["counts_repeat"]
    record["metrics"] = {k: {"value": values[k], "unit": units[k]} for k in units}
    OUT.mkdir(exist_ok=True)
    name = f"{record['workload']}-n{record['n']}-seed{record['env']['seed']}-trace{record['trace']}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, default=float))
    print(f"workload {record['workload']} n={record['n']} order={record['order']} "
          f"trace={record['trace']} env {json.dumps(record['env'])}")
    if record.get("missing_targets"):
        print(f"MISSING wrap targets: {', '.join(record['missing_targets'])}")
    for msg in record["failures"]:
        print(f"FAILED {msg}")
    if not record["counts_repeat"]:
        print("FAILED exact counts differ between set-ups of this run")
    print(f"fail_ratio {record['fail_ratio']:.6g} ({failed}/{attempted}); "
          f"worst backward error {record['worst_backward_error']}")
    for k, m in record["metrics"].items():
        print(f"  {k:38s} {m['value']:.6g} {m['unit']}")
    return {"correct": bool(correct), "attempted": attempted, "failed": failed,
            "metrics": record["metrics"]}


def check_output(stdout: str, expected: dict) -> list[str]:
    """Problems with a run's last output line against the metric spec."""
    lines = stdout.strip().splitlines()
    if not lines:
        return ["no output"]
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        return [f"last line is not JSON: {exc}"]
    issues = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        issues.append(f"keys {sorted(result)}")
        return issues
    if result["correct"] is not True:
        issues.append("correct is not true")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        issues.append(f"attempted {result['attempted']!r}")
    if result["failed"] != 0:
        issues.append(f"failed {result['failed']!r}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        issues.append(f"metric names differ: missing {sorted(set(expected) - set(metrics))}, "
                      f"extra {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        if set(m) != {"value", "unit"} or m["unit"] != unit:
            issues.append(f"{name}: {m}")
        elif not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
            issues.append(f"{name}: value {m['value']!r}")
    return issues


def smoke() -> int:
    """Every workload at n = 0 through both passes; checks schema and names."""
    spec = json.loads(SPEC.read_text())
    passes = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    issues = []
    if passes[0] != END_TO_END or passes[1] != PER_LAYER:
        issues.append("BENCHMARK.json metrics differ from the runner's")
    for workload in spec["workloads"]:
        for trace, expected in passes.items():
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
                   workload["name"], "--seed", "1", "--seconds", "1",
                   "--trace", str(trace), "--n", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
            found = check_output(proc.stdout, expected) if proc.returncode == 0 else [
                f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
            status = "ok" if not found else "FAIL " + "; ".join(found)
            print(f"smoke {workload['name']} trace={trace} "
                  f"({time.perf_counter() - t0:.1f} s): {status}")
            issues += found
    print("smoke passed" if not issues else f"smoke failed: {len(issues)} problem(s)")
    return 0 if not issues else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "platevem" / "__init__.py").is_file():
        print(f"error: no platevem sources under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    blas_threads = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    result = run_workload(args, blas_threads)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
