#!/usr/bin/env python3
"""Repeat the benchmark over seeds and report how steady its metrics are.

    python3 perfbench/steady.py --label a --seeds 1-10
    python3 perfbench/steady.py --label b --seeds 1-10 --compare a

Runs ``run.py`` once per workload and seed, one run at a time, with the
``run_seconds`` of ``BENCHMARK.json``, and prints every run's metrics with
their units and its failed over attempted solves. Over two or more seeds it
prints, for each end-to-end metric, the median, the quartiles and their
distance as a share of the median, against the metric's bound. With
``--compare`` it also prints how far each median moved from the earlier
set, and whether the exact counts of every workload and seed are identical
between the two sets. Results are kept in ``.bench_out/steady-<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    records = sorted(OUT.glob(f"{workload}-n*-seed{seed}-trace{trace}.json"),
                     key=lambda p: p.stat().st_mtime)
    result["counts"] = json.loads(records[-1].read_text())["counts"]
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", help="comma-separated; default all")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", help="label of an earlier set")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    results = {}
    for name in names:
        for seed in seed_range(args.seeds):
            r = run_once(name, seed, spec["run_seconds"], args.trace)
            results[f"{name}/{seed}"] = r
            print(f"{name} seed {seed}: correct={r['correct']} "
                  f"fail_ratio={r['failed'] / r['attempted']:g} ({r['failed']}/{r['attempted']}) "
                  + " ".join(f"{k}={v['value']:.4g} {v['unit']}" for k, v in r["metrics"].items()
                             if not args.trace), flush=True)
    OUT.mkdir(exist_ok=True)
    (OUT / f"steady-{args.label}.json").write_text(json.dumps(results, indent=1))
    earlier = (json.loads((OUT / f"steady-{args.compare}.json").read_text())
               if args.compare else None)
    ok = all(r["correct"] for r in results.values())
    for name in names:
        runs = [r for key, r in results.items() if key.startswith(name + "/")]
        for m in metrics if args.trace == 0 and len(runs) > 1 else []:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            median, q1, q3, share = spread(values)
            line = (f"{name:20s} {m['name']:20s} median {median:10.4g}  q1 {q1:10.4g}  "
                    f"q3 {q3:10.4g}  spread {share:6.3f} (bound {m['bound']})")
            if m["name"] != "setup_s" and share > m["bound"]:
                ok = False
                line += "  SPREAD OVER BOUND"
            if earlier is not None:
                old = [r["metrics"][m["name"]]["value"] for key, r in earlier.items()
                       if key.startswith(name + "/")]
                moved = median / statistics.median(old) - 1.0
                line += f"  vs {args.compare}: {moved:+.3f}"
                if moved > m["bound"]:
                    ok = False
                    line += " WORSE BY MORE THAN BOUND"
            print(line)
        if earlier is not None:
            same = [results[k]["counts"] == earlier[k]["counts"]
                    for k in results if k.startswith(name + "/") and k in earlier]
            print(f"{name:20s} exact counts identical in {sum(same)}/{len(same)} seeds")
            ok = ok and all(same)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
