"""Table 6 — Macro-blocked floorplans.

The suite's macro variants (ckt256m/ckt512m) drop 3-4 hard macros on
the die: placement keep-outs, routing keep-outs, and detours for every
wire that would have crossed them.  Expected shape: wirelength grows a
few percent (detours), skew stays trimmed, and the smart-vs-all-NDR
ordering is unchanged — the method is floorplan-agnostic.
"""

from __future__ import annotations

from conftest import bench_jobs, emit
from repro.core import Policy
from repro.reporting import Table
from repro.runner import JobSpec

DESIGNS = ("ckt256m", "ckt512m")
BASELINES = {"ckt256m": "ckt256", "ckt512m": "ckt512"}
POLICIES = (Policy.NO_NDR, Policy.ALL_NDR, Policy.SMART)


def _build(matrix) -> Table:
    table = Table(
        "Table 6: policies on macro-blocked floorplans",
        ["design", "macros", "policy", "P (uW)", "clk WL (um)",
         "skew ps", "dd ps", "feasible"])
    # The whole experiment is one job list; the runner computes each
    # macro variant's all-NDR reference once as a shared upstream job
    # instead of once per hand-loop iteration.
    results = matrix.runner.run(
        [JobSpec(design=d, policy=p, slack=0.15)
         for d in DESIGNS for p in POLICIES],
        jobs=bench_jobs(), return_flows=True)
    rows = {}
    for result in results:
        flow = result.flow
        rows[(result.job.design, result.job.policy)] = flow
        a = flow.analyses
        table.add_row(result.job.design,
                      len(flow.physical.design.blockages),
                      result.job.policy.value, flow.clock_power,
                      flow.physical.routing.clock_wirelength(),
                      a.timing.skew, a.crosstalk.worst_delta,
                      "yes" if flow.feasible else "NO")
    _build.rows = rows  # stash for the assertions
    return table


def test_table6_blocked_floorplans(benchmark, capsys, matrix):
    table = benchmark.pedantic(_build, args=(matrix,), rounds=1, iterations=1)
    emit(capsys, table.render())
    rows = _build.rows
    for name in DESIGNS:
        assert not rows[(name, Policy.NO_NDR)].feasible
        assert rows[(name, Policy.SMART)].feasible
        assert rows[(name, Policy.SMART)].clock_power < \
            rows[(name, Policy.ALL_NDR)].clock_power
        # Skew trimmed despite the detours.
        assert rows[(name, Policy.SMART)].analyses.timing.skew < 5.0
