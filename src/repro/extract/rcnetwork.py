"""The stage-structured RC network of a buffered clock tree.

A buffer electrically decouples its subtree, so the clock network is a
*tree of stages*: each stage is an RC tree rooted at a buffer output
(or at the clock source) whose leaves are either flop clock pins or the
input pins of next-stage buffers.

Every wire becomes one pi segment: its resistance sits between two RC
nodes; half of its capacitance lands on each end (the pi model is
Elmore-exact for a distributed line).  Capacitance contributions stay
tagged with the wire that produced them, split into a width-tracking
part and a width-independent part, so the Monte-Carlo engine can scale
them per process sample without rebuilding anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cts.tree import ClockTree
from repro.extract.capmodel import WireParasitics
from repro.netlist.cell import Pin
from repro.route.router import RoutingResult
from repro.tech.buffers import BufferCell


@dataclass
class RcNode:
    """One node of a stage RC tree.

    Attributes
    ----------
    idx:
        Dense index within the stage (0 is the stage root).
    parent:
        Index of the parent node (None for the root).
    wire_id:
        Wire providing the resistance from the parent (None for root).
    r:
        Nominal resistance from the parent, kOhm.
    cap_fixed:
        Width-variation-independent capacitance at this node: pins,
        buffer inputs, fF.
    cap_wire:
        Wire capacitance contributions at this node, as
        ``(wire_id, c_area_half, c_rest_half)`` tuples.
    tree_node_id:
        The clock-tree node this RC node coincides with, if any.
    """

    idx: int
    parent: Optional[int]
    wire_id: Optional[int]
    r: float
    cap_fixed: float = 0.0
    cap_wire: list[tuple[int, float, float]] = field(default_factory=list)
    tree_node_id: Optional[int] = None

    @property
    def cap_nominal(self) -> float:
        return self.cap_fixed + sum(a + b for _, a, b in self.cap_wire)


@dataclass
class StageSink:
    """A leaf of a stage: a flop pin or a next-stage buffer input."""

    node_idx: int
    sink_pin: Optional[Pin] = None
    next_stage_tree_id: Optional[int] = None

    @property
    def is_flop(self) -> bool:
        return self.sink_pin is not None


@dataclass
class Stage:
    """One buffered stage of the clock network."""

    tree_node_id: int            # the buffered tree node driving this stage
    driver: BufferCell
    nodes: list[RcNode] = field(default_factory=list)
    sinks: list[StageSink] = field(default_factory=list)
    pad_cap: float = 0.0         # delay-equalising dummy load at the root, fF
    snake_cap: float = 0.0       # wire cap of the series root snake, fF

    @property
    def total_cap(self) -> float:
        """Nominal load capacitance seen by the driver, fF."""
        return sum(n.cap_nominal for n in self.nodes)

    def path_to_root(self, node_idx: int) -> list[int]:
        """RC node indices from ``node_idx`` up to and including the root."""
        path = [node_idx]
        while self.nodes[path[-1]].parent is not None:
            path.append(self.nodes[path[-1]].parent)
        return path

    def downstream_caps(self) -> list[float]:
        """Nominal capacitance below-and-including each node (by index)."""
        caps = [n.cap_nominal for n in self.nodes]
        for node in reversed(self.nodes):
            if node.parent is not None:
                caps[node.parent] += caps[node.idx]
        return caps

    def elmore_to(self, node_idx: int) -> float:
        """Nominal Elmore delay from the stage root to ``node_idx``, ps
        (wire only; the driver's contribution is added by the timer)."""
        down = self.downstream_caps()
        delay = 0.0
        for idx in self.path_to_root(node_idx):
            node = self.nodes[idx]
            if node.parent is not None:
                delay += node.r * down[idx]
        return delay


@dataclass
class ClockRcNetwork:
    """All stages of one clock network, linked into a tree of stages."""

    stages: list[Stage] = field(default_factory=list)
    root_stage: int = 0
    #: tree node id of a buffered node -> its stage index
    stage_of_tree_node: dict[int, int] = field(default_factory=dict)
    #: wire id -> (stage index, near RC node, far RC node); lazy, see _sites
    _wire_sites: Optional[dict[int, tuple[int, int, int]]] = \
        field(default=None, repr=False, compare=False)

    def stage_children(self, stage_idx: int) -> list[int]:
        """Stage indices driven through this stage's buffer sinks."""
        out = []
        for sink in self.stages[stage_idx].sinks:
            if sink.next_stage_tree_id is not None:
                out.append(self.stage_of_tree_node[sink.next_stage_tree_id])
        return out

    def flop_sinks(self) -> list[tuple[int, StageSink]]:
        """All (stage index, sink) pairs that are flop pins, in stage order."""
        result = []
        for idx, stage in enumerate(self.stages):
            for sink in stage.sinks:
                if sink.is_flop:
                    result.append((idx, sink))
        return result

    @property
    def total_wire_cap(self) -> float:
        return sum(stage.total_cap for stage in self.stages)

    def fork(self) -> "ClockRcNetwork":
        """A network whose stages and RC nodes are its own.

        A wire patch or trim writes node and stage values, and a stage
        rebuild replaces the stage, so stage sinks, the stage index and
        the wire-site index are shared read-only.
        """
        stages = []
        for stage in self.stages:
            nodes = []
            for node in stage.nodes:
                copy = RcNode.__new__(RcNode)
                copy.__dict__.update(node.__dict__)
                copy.cap_wire = list(node.cap_wire)
                nodes.append(copy)
            stages.append(Stage(tree_node_id=stage.tree_node_id,
                                driver=stage.driver, nodes=nodes,
                                sinks=stage.sinks, pad_cap=stage.pad_cap,
                                snake_cap=stage.snake_cap))
        return ClockRcNetwork(stages=stages, root_stage=self.root_stage,
                              stage_of_tree_node=self.stage_of_tree_node,
                              _wire_sites=self._wire_sites)

    # -- incremental patching --------------------------------------------------

    def _sites(self) -> dict[int, tuple[int, int, int]]:
        """Wire id -> (stage, near node, far node), built lazily."""
        if self._wire_sites is None:
            sites: dict[int, tuple[int, int, int]] = {}
            for stage_idx, stage in enumerate(self.stages):
                for node in stage.nodes:
                    if node.wire_id is not None:
                        sites[node.wire_id] = (stage_idx, node.parent,
                                               node.idx)
            self._wire_sites = sites
        return self._wire_sites

    def patch_wire(self, wire_id: int,
                   para: WireParasitics) -> int:
        """Update one wire's R/C entries in place; returns its stage index.

        Topology is untouched: only the far node's series resistance and
        the two half-capacitance entries change, which is exactly the
        footprint of a routing-rule re-assignment.
        """
        stage_idx, near_idx, far_idx = self._sites()[wire_id]
        stage = self.stages[stage_idx]
        half_area = para.c_area / 2.0
        half_rest = para.c_rest / 2.0
        for node_idx in (near_idx, far_idx):
            node = stage.nodes[node_idx]
            node.cap_wire = [
                (wid, half_area, half_rest) if wid == wire_id
                else (wid, a, b)
                for wid, a, b in node.cap_wire]
        stage.nodes[far_idx].r = para.r
        return stage_idx

    def retrim_stage(self, stage_idx: int, tree: ClockTree) -> bool:
        """Patch one stage's root pad/snake values after a trim change.

        A trim edits nothing but the stage root's dummy pad and the
        series snake, so when the snake node neither appears nor
        disappears the stage can be patched in place — no node rebuild,
        and the wire-site index stays valid.  Returns False when the
        topology did change (snake added or removed); the caller must
        fall back to :meth:`rebuild_stage`.
        """
        stage = self.stages[stage_idx]
        tree_node = tree.node(stage.tree_node_id)
        has_snake = len(stage.nodes) > 1 and stage.nodes[1].wire_id is None
        if has_snake != (tree_node.root_snake > 0.0):
            return False
        root = stage.nodes[0]
        half_delta = (tree_node.root_snake_c - stage.snake_cap) / 2.0
        root.cap_fixed += (tree_node.load_pad - stage.pad_cap) + half_delta
        if has_snake:
            snake = stage.nodes[1]
            snake.cap_fixed += half_delta
            snake.r = tree_node.root_snake_r
        stage.pad_cap = tree_node.load_pad
        stage.snake_cap = tree_node.root_snake_c
        return True

    def rebuild_stage(self, stage_idx: int, tree: ClockTree,
                      routing: RoutingResult,
                      parasitics: dict[int, WireParasitics]) -> None:
        """Re-derive one stage from the tree (after a trim change).

        Stage identity (index, ``tree_node_id``) is preserved; only the
        stage's own RC nodes and sinks are rebuilt, so references from
        other stages stay valid.
        """
        old = self.stages[stage_idx]
        tree_node = tree.node(old.tree_node_id)
        if tree_node.buffer is None:
            raise ValueError(
                f"stage {stage_idx} is rooted at tree node "
                f"{old.tree_node_id}, which no longer carries a buffer; "
                f"stages can only be rebuilt in place while the buffered "
                f"node set is unchanged")
        stage = Stage(tree_node_id=old.tree_node_id, driver=tree_node.buffer)
        _fill_stage(stage, tree, routing, parasitics)
        self.stages[stage_idx] = stage
        self._wire_sites = None


def _fill_stage(stage: Stage, tree: ClockTree, routing: RoutingResult,
                parasitics: dict[int, WireParasitics]) -> None:
    """Populate a fresh :class:`Stage` from the tree below its buffer."""
    buffered_tree_id = stage.tree_node_id
    tree_node = tree.node(buffered_tree_id)

    root = RcNode(idx=0, parent=None, wire_id=None, r=0.0,
                  tree_node_id=buffered_tree_id)
    # Delay-equalising dummy load hangs directly on the buffer output.
    root.cap_fixed += tree_node.load_pad
    stage.pad_cap = tree_node.load_pad
    stage.nodes.append(root)

    # Series root snake: a detour wire between the buffer output and
    # the stage's wire tree (cheap delay trim for big drivers).  It
    # has no routed wire id — it is variation-free by construction.
    attach_idx = 0
    if tree_node.root_snake > 0.0:
        half_c = tree_node.root_snake_c / 2.0
        root.cap_fixed += half_c
        snake_node = RcNode(idx=1, parent=0, wire_id=None,
                            r=tree_node.root_snake_r, cap_fixed=half_c)
        stage.nodes.append(snake_node)
        stage.snake_cap = tree_node.root_snake_c
        attach_idx = 1

    # A buffered node that is itself a sink (degenerate single-flop
    # tree): the buffer drives the flop pin directly.
    if tree_node.is_sink:
        node = stage.nodes[attach_idx]
        node.cap_fixed += tree_node.sink_pin.cap
        stage.sinks.append(StageSink(node_idx=attach_idx,
                                     sink_pin=tree_node.sink_pin))

    pending: list[tuple[int, int]] = [(buffered_tree_id, attach_idx)]
    while pending:
        parent_tree_id, parent_rc_idx = pending.pop()
        for child_id in tree.node(parent_tree_id).children:
            child = tree.node(child_id)
            rc_idx = parent_rc_idx
            for wire in routing.edge_wires.get(child_id, []):
                para = parasitics[wire.wire_id]
                half_area = para.c_area / 2.0
                half_rest = para.c_rest / 2.0
                stage.nodes[rc_idx].cap_wire.append(
                    (wire.wire_id, half_area, half_rest))
                node = RcNode(idx=len(stage.nodes), parent=rc_idx,
                              wire_id=wire.wire_id, r=para.r)
                node.cap_wire.append((wire.wire_id, half_area, half_rest))
                stage.nodes.append(node)
                rc_idx = node.idx
            # The last RC node coincides with the child tree node
            # (unless the edge had no wires, i.e. the nodes are
            # colocated — then the parent RC node stands for both).
            if rc_idx != parent_rc_idx:
                stage.nodes[rc_idx].tree_node_id = child_id

            if child.buffer is not None:
                stage.nodes[rc_idx].cap_fixed += child.buffer.c_in
                stage.sinks.append(StageSink(
                    node_idx=rc_idx, next_stage_tree_id=child_id))
                continue  # next stage handles the subtree
            if child.is_sink:
                stage.nodes[rc_idx].cap_fixed += child.sink_pin.cap
                stage.sinks.append(StageSink(
                    node_idx=rc_idx, sink_pin=child.sink_pin))
            if child.children:
                pending.append((child_id, rc_idx))


def build_rc_network(tree: ClockTree, routing: RoutingResult,
                     parasitics: dict[int, WireParasitics]) -> ClockRcNetwork:
    """Assemble the stage-structured RC network.

    ``parasitics`` maps wire id to its extraction.  The tree root must
    carry a buffer (it is the network driver).
    """
    if tree.root.buffer is None:
        raise ValueError("clock tree root must carry a buffer")

    network = ClockRcNetwork()

    def build_stage(buffered_tree_id: int) -> int:
        tree_node = tree.node(buffered_tree_id)
        if tree_node.buffer is None:
            raise ValueError(
                f"tree node {buffered_tree_id} was linked as a stage "
                f"root but carries no buffer; buffer insertion and "
                f"stage sinks are out of sync")
        stage = Stage(tree_node_id=buffered_tree_id, driver=tree_node.buffer)
        stage_idx = len(network.stages)
        network.stages.append(stage)
        network.stage_of_tree_node[buffered_tree_id] = stage_idx
        _fill_stage(stage, tree, routing, parasitics)
        return stage_idx

    # Build stages in BFS order over buffered nodes.
    network.root_stage = build_stage(tree.root_id)
    queue = [network.root_stage]
    while queue:
        stage_idx = queue.pop(0)
        for sink in network.stages[stage_idx].sinks:
            if sink.next_stage_tree_id is not None:
                child_idx = build_stage(sink.next_stage_tree_id)
                queue.append(child_idx)
    return network
