"""The benchmark tracer's contract with the library.

``perfbench/tracing.py`` wraps library functions by name and counts problem
sizes from their arguments and results; ``perfbench/run.py --trace 1``
reads ``correct`` only when those counts equal ``workloads.size_counts``.
A library change that renames a hooked function or changes what its
arguments carry breaks that silently, so every workload is run here once,
traced, at n = 0. Both modules are loaded read-only from their files.
"""

import pytest

from conftest import load_module

tracing = load_module("tracing")
workloads = load_module("workloads")

# Targets the tracer still names although the library no longer has them;
# any other missing target is a rename that zeroes a per-layer metric.
STALE_TARGETS = sorted(
    [
        "platevem.polynomials.ScaledMonomialBasis.eval",
        "platevem.polynomials.ScaledMonomialBasis.edge_restriction",
        "platevem.polynomials.ScaledMonomialBasis.derivative_matrix",
        "platevem.local.edge_rule",
        "platevem.assembly.edge_rule",
        "platevem.local.energy_and_seminorm_grams",
        "platevem.local.normal_moment_matrix",
        "platevem.local.shear_matrix",
        "platevem.local.twist_matrix",
        "platevem.convergence.compute_dofs",
        # The factor hook: ``assembly`` no longer imports SciPy's sparse
        # solvers, so the factor, solve and ``nnz_LU`` spans read 0.
        "platevem.assembly.spla.splu",
    ]
)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_match_size_counts(name):
    """One traced n = 0 set-up per workload: the tracer's exact counts are
    the size counts, the one counting target missing is the stale factor
    hook, and the missing targets are exactly the known stale ones."""
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
    assert sorted(hooked & set(tracer.missing)) == ["platevem.assembly.spla.splu"]
    assert sorted(tracer.missing) == STALE_TARGETS

