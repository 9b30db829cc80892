"""The benchmark tracer's contract with the library.

``perfbench/tracing.py`` wraps library functions by name and counts problem
sizes from their arguments and results; ``perfbench/run.py --trace 1``
reads ``correct`` only when those counts equal ``workloads.size_counts``.
A library change that renames a hooked function or changes what its
arguments carry breaks that silently, so every workload is run here once,
traced, at n = 0. Both modules are loaded read-only from their files.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_module(name: str):
    """Import ``perfbench/<name>.py`` by path, registered once."""
    key = f"perfbench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[key] = module
        spec.loader.exec_module(module)
    return sys.modules[key]


tracing = load_module("tracing")
workloads = load_module("workloads")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_match_size_counts(name):
    """One traced n = 0 set-up per workload: the tracer's exact counts are
    the size counts, and no target that counts is missing."""
    workload = workloads.WORKLOADS[name]
    problems = workloads.make_problems(workload, 1)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        timed = workloads.solve_phase(workload, 0, 1, problems)
    finally:
        tracer.uninstall()
    checked = workloads.check_phase(workload, 0, problems, timed)
    assert not checked.failures
    assert checked.counts
    assert {key: tracer.counts[key] for key in checked.counts} == checked.counts
    hooked = set(tracer._hooks())
    assert len(hooked) == 7
    assert not hooked & set(tracer.missing)
