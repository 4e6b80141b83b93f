"""Figure 13 — Two clock domains weaving through one die.

Splits ckt256 into two interleaved clock domains routed into the same
track space, so each tree sees the other as an activity-1.0 aggressor,
and compares policies per domain.  Expected shape: NO-NDR fails (the
other clock is the worst aggressor there is); uniform ALL-NDR is not
guaranteed to pass either (the second domain's trunks hit EM corners);
SMART passes both domains at a power near the NO-NDR point — and the
combined story matches the single-clock headline.
"""

from __future__ import annotations

from conftest import emit
from repro.designs import generate_design, spec_by_name
from repro.core import Policy
from repro.core.multiclock import run_multiclock_flow, split_domains
from repro.reporting import Table

DESIGN = "ckt256"


def _build(matrix):
    from repro.core import targets_from_reference

    # Reference-pegged per-domain budgets: the standard protocol, run
    # against the multiclock ALL-NDR build.
    design = generate_design(spec_by_name(DESIGN))
    domains = split_domains(design, 2, interleave=True)
    reference = run_multiclock_flow(design, domains, matrix.tech,
                                    policy=Policy.ALL_NDR)
    targets = {d.domain.name: targets_from_reference(d.analyses, matrix.tech)
               for d in reference.domains}

    table = Table(
        f"Fig 13: two interleaved clock domains on {DESIGN}",
        ["policy", "domain", "P (uW)", "dd ps", "3sig ps", "EM viol",
         "feasible"])
    results = {}
    for policy in (Policy.NO_NDR, Policy.ALL_NDR, Policy.SMART):
        design = generate_design(spec_by_name(DESIGN))
        domains = split_domains(design, 2, interleave=True)
        result = run_multiclock_flow(design, domains, matrix.tech,
                                     policy=policy, targets=targets)
        results[policy] = result
        for d in result.domains:
            a = d.analyses
            table.add_row(policy.value, d.domain.name, d.clock_power,
                          a.crosstalk.worst_delta, a.mc.skew_3sigma,
                          int(a.em.num_violations),
                          "yes" if d.feasible else "NO")
    _build.results = results
    return table


def test_fig13_multiclock(benchmark, capsys, matrix):
    table = benchmark.pedantic(_build, args=(matrix,), rounds=1,
                               iterations=1)
    emit(capsys, table.render())
    results = _build.results
    assert not results[Policy.NO_NDR].all_feasible
    assert results[Policy.SMART].all_feasible
    # Selective assignment beats uniform NDR on combined power.
    assert results[Policy.SMART].total_power < \
        results[Policy.ALL_NDR].total_power
