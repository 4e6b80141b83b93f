"""Per-wire electrical context within a clock stage.

The greedy optimizer and its sensitivity model read, for every clock
wire, where it sits in its stage's RC network: the resistance above
it, the capacitance and flops below it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cts.tree import ClockTree
from repro.extract.extractor import Extraction


@dataclass(frozen=True)
class WireContext:
    """Electrical context of one clock wire within its stage."""

    wire_id: int
    stage_idx: int
    node_idx: int          # RC node at the wire's far end
    upstream_r: float      # kOhm from stage driver to the wire's near end
    downstream_cap: float  # fF below (and including) the far node
    downstream_flops: int  # flops in the full subtree below the far node


def wire_contexts(tree: ClockTree, extraction: Extraction) -> dict[int, WireContext]:
    """Per-wire electrical context, derived from the stage network."""
    network = extraction.network

    # Full-subtree flop counts per stage (bottom-up over the stage tree).
    stage_flops: dict[int, int] = {}

    def count_stage_flops(stage_idx: int) -> int:
        if stage_idx in stage_flops:
            return stage_flops[stage_idx]
        total = 0
        for sink in network.stages[stage_idx].sinks:
            if sink.is_flop:
                total += 1
            else:
                total += count_stage_flops(
                    network.stage_of_tree_node[sink.next_stage_tree_id])
        stage_flops[stage_idx] = total
        return total

    for idx in range(len(network.stages)):
        count_stage_flops(idx)

    contexts: dict[int, WireContext] = {}
    for stage_idx, stage in enumerate(network.stages):
        down = stage.downstream_caps()
        r_path = [0.0] * len(stage.nodes)
        # Flops below each RC node, counting through next-stage buffers.
        flops_below = [0] * len(stage.nodes)
        for sink in stage.sinks:
            if sink.is_flop:
                flops_below[sink.node_idx] += 1
            else:
                child = network.stage_of_tree_node[sink.next_stage_tree_id]
                flops_below[sink.node_idx] += stage_flops[child]
        for node in stage.nodes:
            if node.parent is not None:
                r_path[node.idx] = r_path[node.parent] + node.r
        for node in reversed(stage.nodes):
            if node.parent is not None:
                flops_below[node.parent] += flops_below[node.idx]
        for node in stage.nodes:
            if node.wire_id is None:
                continue
            contexts[node.wire_id] = WireContext(
                wire_id=node.wire_id,
                stage_idx=stage_idx,
                node_idx=node.idx,
                upstream_r=stage.driver.r_drive + r_path[node.parent],
                downstream_cap=down[node.idx],
                downstream_flops=flops_below[node.idx],
            )
    return contexts

