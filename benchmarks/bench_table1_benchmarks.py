"""Table 1 — Benchmark statistics.

Reproduces the evaluation setup table: per design, the sink count, die
size, aggressor nets, synthesized tree structure (depth, buffers,
stages), routed clock wirelength and nominal timing at default rules.
"""

from __future__ import annotations

from conftest import corpus_specs, emit, suite_specs
from repro.designs import generate_design
from repro.core.flow import build_physical_design
from repro.reporting import Table


def _build_table(tech, specs, title) -> Table:
    table = Table(
        title,
        ["design", "sinks", "die (um)", "aggr nets", "tree depth",
         "buffers", "stages", "clk WL (um)", "latency (ps)", "skew (ps)"])
    for spec in specs:
        design = generate_design(spec)
        phys = build_physical_design(design, tech)
        timing = phys.refine.timing
        depth = max(phys.tree.depth(leaf.node_id)
                    for leaf in phys.tree.leaves())
        table.add_row(
            spec.name,
            spec.n_sinks,
            f"{spec.die_edge:.0f}",
            spec.n_aggressors,
            depth,
            sum(1 for n in phys.tree if n.buffer is not None),
            len(phys.extraction.network.stages),
            phys.routing.clock_wirelength(),
            timing.latency,
            timing.skew,
        )
    return table


def test_table1_benchmark_statistics(benchmark, capsys, tech):
    table = benchmark.pedantic(
        _build_table,
        args=(tech, suite_specs(),
              "Table 1: benchmark statistics (default-rule routing)"),
        rounds=1, iterations=1)
    emit(capsys, table.render())
    assert len(table.rows) == len(suite_specs())


def test_table1_corpus_extension(benchmark, capsys, tech):
    """The same statistics over the hierarchical/gated/imported slice."""
    table = benchmark.pedantic(
        _build_table,
        args=(tech, corpus_specs(),
              "Table 1 (ext): corpus families (default-rule routing)"),
        rounds=1, iterations=1)
    emit(capsys, table.render())
    assert len(table.rows) == len(corpus_specs())
