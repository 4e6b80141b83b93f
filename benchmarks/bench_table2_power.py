"""Table 2 — Clock switched capacitance and power per policy.

The headline table: for every design, clock power of NO-NDR /
ALL-NDR / SMART, plus SMART's power saving over ALL-NDR.  Expected
shape: ALL-NDR pays a double-digit percentage over NO-NDR; SMART lands
within a few percent of NO-NDR while staying feasible.
"""

from __future__ import annotations

from conftest import TABLE_DESIGNS, TABLE_POLICIES, emit
from repro.core import Policy
from repro.reporting import Table


def _build_table(matrix) -> Table:
    table = Table(
        "Table 2: switched capacitance (fF) / clock power (uW) per policy",
        ["design", "no-ndr P", "all-ndr P", "smart P",
         "all-ndr ovh %", "smart save %", "smart feas"])
    # Declare the full sub-matrix up front: missing cells run as one
    # batch through the FlowRunner (parallel under REPRO_BENCH_JOBS).
    matrix.ensure(TABLE_DESIGNS, TABLE_POLICIES)
    for name in TABLE_DESIGNS:
        flows = {p: matrix.flow(name, p) for p in TABLE_POLICIES}
        p_no = flows[Policy.NO_NDR].clock_power
        p_all = flows[Policy.ALL_NDR].clock_power
        p_smart = flows[Policy.SMART].clock_power
        table.add_row(
            name,
            p_no,
            p_all,
            p_smart,
            100.0 * (p_all - p_no) / p_no,
            100.0 * (p_all - p_smart) / p_all,
            "yes" if flows[Policy.SMART].feasible else "NO",
        )
    return table


def test_table2_power_per_policy(benchmark, capsys, matrix):
    table = benchmark.pedantic(_build_table, args=(matrix,),
                               rounds=1, iterations=1)
    emit(capsys, table.render())

    # Shape assertions: the paper's ordering must hold on every design.
    for row in table.rows:
        p_no, p_all, p_smart = (float(row[i].replace(",", ""))
                                for i in (1, 2, 3))
        assert p_no < p_all
        assert p_smart < p_all
