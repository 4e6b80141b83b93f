"""Table 3 — Robustness per policy.

For every design and policy: nominal skew, Monte-Carlo mu+3sigma skew,
worst crosstalk delta delay, worst slew, and EM violations — against
the design's reference-pegged budgets.  Expected shape: NO-NDR violates
(delta delay and/or EM) on every design; ALL-NDR meets everything it
can; SMART meets every budget.
"""

from __future__ import annotations

from conftest import TABLE_DESIGNS, TABLE_POLICIES, emit
from repro.reporting import Table


def _build_table(matrix) -> Table:
    table = Table(
        "Table 3: robustness per policy (budget in '[]')",
        ["design", "policy", "skew ps", "3sig ps", "dd ps", "slew ps",
         "EM viol", "feasible"])
    matrix.ensure(TABLE_DESIGNS, TABLE_POLICIES)
    for name in TABLE_DESIGNS:
        targets = matrix.targets_for(name)
        for policy in TABLE_POLICIES:
            flow = matrix.flow(name, policy)
            a = flow.analyses
            table.add_row(
                name,
                policy.value,
                a.timing.skew,
                f"{a.mc.skew_3sigma:.2f} [{targets.max_skew_3sigma:.2f}]",
                f"{a.crosstalk.worst_delta:.2f} [{targets.max_worst_delta:.2f}]",
                a.timing.worst_slew,
                int(a.em.num_violations),
                "yes" if flow.feasible else "NO",
            )
    return table


def test_table3_robustness_per_policy(benchmark, capsys, matrix):
    table = benchmark.pedantic(_build_table, args=(matrix,),
                               rounds=1, iterations=1)
    emit(capsys, table.render())

    from repro.core import Policy

    # Shape assertions: no-NDR must fail somewhere; smart must pass
    # everywhere.
    for name in TABLE_DESIGNS:
        assert not matrix.flow(name, Policy.NO_NDR).feasible
        assert matrix.flow(name, Policy.SMART).feasible
