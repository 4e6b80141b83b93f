"""Skew refinement: convergence, idempotence, cost accounting."""

import pytest

from repro.cts.refine import refine_skew
from repro.timing.arrival import analyze_clock_timing


def test_refinement_reduces_skew(make_small_physical, tech):
    phys = make_small_physical()
    # build_physical_design already refined; verify the result is tight.
    assert phys.refine.final_skew <= max(1.0, 0.02 * phys.refine.timing.latency)
    assert phys.refine.final_skew <= phys.refine.initial_skew


def test_trim_cost_is_accounted(make_small_physical):
    phys = make_small_physical()
    tree_cost = sum(n.trim_pad + n.trim_snake * n.snake_c_per_um
                    for n in phys.tree)
    assert phys.refine.added_pad_cap == pytest.approx(tree_cost)


def test_refine_is_stable_under_repetition(make_small_physical, tech):
    """Re-running refine must not ratchet trim capacitance upward."""
    phys = make_small_physical()
    first = refine_skew(phys.tree, phys.routing, tech)
    second = refine_skew(phys.tree, phys.routing, tech)
    assert second.added_pad_cap <= first.added_pad_cap * 1.05 + 1.0
    assert second.final_skew <= max(first.final_skew * 1.5, 1.0)


def test_latency_not_exploded(make_small_physical, tech):
    """Trimming delays early sinks to the latest one, not beyond."""
    phys = make_small_physical()
    timing = analyze_clock_timing(phys.extraction.network, tech)
    # Re-derive what the untrimmed latency would be: strip trims.
    for node in phys.tree:
        node.trim_pad = 0.0
        node.trim_snake = 0.0
    from repro.extract import extract
    bare = analyze_clock_timing(
        extract(phys.tree, phys.routing).network, tech)
    # Trims only delay the early sinks; the latest path gains at most a
    # small overshoot.
    assert timing.latency <= bare.latency * 1.05 + 2.0


def test_slew_stays_legal_after_refine(make_small_physical, tech):
    phys = make_small_physical()
    timing = analyze_clock_timing(phys.extraction.network, tech)
    assert timing.worst_slew <= tech.max_slew


def test_damping_validation(make_small_physical, tech):
    phys = make_small_physical()
    with pytest.raises(ValueError):
        refine_skew(phys.tree, phys.routing, tech, damping=0.0)
    with pytest.raises(ValueError):
        refine_skew(phys.tree, phys.routing, tech, damping=1.5)


def test_loose_target_is_noop(make_small_physical, tech):
    phys = make_small_physical()
    result = refine_skew(phys.tree, phys.routing, tech, target_skew=1e9)
    assert result.iterations == 0
    assert result.added_pad_cap == 0.0


def _network_view(network):
    """Every number and link of an RC network, in stage order."""
    stages = []
    for stage in network.stages:
        nodes = [(n.idx, n.parent, n.wire_id, n.r, n.cap_fixed,
                  list(n.cap_wire), n.tree_node_id) for n in stage.nodes]
        sinks = [(s.node_idx,
                  s.sink_pin.full_name if s.sink_pin is not None else None,
                  s.next_stage_tree_id) for s in stage.sinks]
        stages.append((stage.tree_node_id, stage.driver.name,
                       stage.pad_cap, stage.snake_cap, nodes, sinks))
    return network.root_stage, dict(network.stage_of_tree_node), stages


def test_engine_free_refine_extracts_once(make_small_physical, tech,
                                          monkeypatch):
    """Trim passes rebuild only the network over one extraction.

    Wire parasitics read only the routing and a trim writes only the
    tree, so the refined extraction must equal a fresh extraction of
    the trimmed tree float for float.
    """
    import repro.cts.refine as refine_module
    from repro.extract import extract

    phys = make_small_physical()
    calls = []

    def counting_extract(tree, routing):
        calls.append(routing)
        return extract(tree, routing)

    monkeypatch.setattr(refine_module, "extract", counting_extract)
    result = refine_skew(phys.tree, phys.routing, tech, damping=0.5)
    assert result.iterations >= 2
    assert len(calls) == 1

    fresh = extract(phys.tree, phys.routing)
    assert list(result.extraction.wires.items()) == \
        list(fresh.wires.items())
    assert _network_view(result.extraction.network) == \
        _network_view(fresh.network)
    assert result.final_skew == \
        analyze_clock_timing(fresh.network, tech).skew
