"""The clock tree data structure.

A :class:`ClockTree` is a rooted tree of :class:`ClockNode`.  Leaves
correspond 1:1 to sink flop clock pins.  Internal nodes are merge points
(Steiner points of the clock net); any node may carry a buffer, which
electrically splits the tree into buffered *stages*.

Edges are logical here — the router realises each (parent, child) edge
as Manhattan segments and may add snaking length recorded in
``ClockNode.snake`` (extra wirelength inserted for delay balancing).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.geom.point import Point
from repro.netlist.cell import Pin
from repro.tech.buffers import BufferCell


@dataclass
class ClockNode:
    """One node of the clock tree.

    Attributes
    ----------
    node_id:
        Dense integer id, unique within the tree.
    location:
        Placed location (um); set by embedding.
    parent:
        Parent node id, or ``None`` for the root.
    children:
        Child node ids in deterministic order.
    sink_pin:
        The flop clock pin this leaf drives (leaves only).
    buffer:
        Buffer cell placed at this node, if any.  The buffer drives the
        subtree below this node.
    snake:
        Extra (detour) wirelength in um added on the edge from
        ``parent`` to this node for zero-skew balancing.
    base_pad:
        Dummy capacitance (fF) hung on this node's buffer output by
        buffer insertion to equalise stage delays across a level.
    trim_pad:
        Additional dummy capacitance added by skew refinement.  Unlike
        ``base_pad`` it is *re-derived from scratch* on every refine
        run, so repeated refinement cannot ratchet capacitance upward.
    base_snake / trim_snake:
        Series detour wirelength (um) inserted at this node's buffer
        *output*, before the stage's wire tree.  A series snake delays
        the whole stage by ~``R_snake * C_stage`` while adding only its
        own wire capacitance — the cheap delay-trim knob for stages
        with big (low-resistance) drivers, where load pads would cost
        ``delay / r_drive`` femtofarads.  Same base/trim split as pads.
    snake_r_per_um / snake_c_per_um:
        RC coefficients of the snake wire (set together with the snake
        lengths by whoever inserts them, since the tree itself has no
        technology reference).
    """

    node_id: int
    location: Point = field(default_factory=lambda: Point(0.0, 0.0))
    parent: Optional[int] = None
    children: list[int] = field(default_factory=list)
    sink_pin: Optional[Pin] = None
    buffer: Optional[BufferCell] = None
    snake: float = 0.0
    base_pad: float = 0.0
    trim_pad: float = 0.0
    base_snake: float = 0.0
    trim_snake: float = 0.0
    snake_r_per_um: float = 0.0
    snake_c_per_um: float = 0.0

    @property
    def load_pad(self) -> float:
        """Total dummy capacitance at this node's buffer output, fF."""
        return self.base_pad + self.trim_pad

    @property
    def root_snake(self) -> float:
        """Total series detour at this node's buffer output, um."""
        return self.base_snake + self.trim_snake

    @property
    def root_snake_r(self) -> float:
        """Series resistance of the root snake, kOhm."""
        return self.root_snake * self.snake_r_per_um

    @property
    def root_snake_c(self) -> float:
        """Wire capacitance of the root snake, fF."""
        return self.root_snake * self.snake_c_per_um

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def is_sink(self) -> bool:
        return self.sink_pin is not None


class ClockTree:
    """A rooted clock tree with id-indexed nodes."""

    def __init__(self) -> None:
        self._nodes: dict[int, ClockNode] = {}
        self._next_id = 0
        self.root_id: Optional[int] = None

    # -- construction ----------------------------------------------------------

    def new_node(self, location: Optional[Point] = None,
                 sink_pin: Optional[Pin] = None) -> ClockNode:
        """Create a fresh node (optionally placed / bound to a sink pin)."""
        node = ClockNode(node_id=self._next_id)
        if location is not None:
            node.location = location
        node.sink_pin = sink_pin
        self._nodes[node.node_id] = node
        self._next_id += 1
        return node

    def set_root(self, node_id: int) -> None:
        """Declare an existing node as the tree root."""
        self._check_id(node_id)
        self.root_id = node_id

    def attach(self, parent_id: int, child_id: int) -> None:
        """Make ``child_id`` a child of ``parent_id``."""
        self._check_id(parent_id)
        self._check_id(child_id)
        child = self._nodes[child_id]
        if child.parent is not None:
            raise ValueError(f"node {child_id} already has a parent")
        if parent_id == child_id:
            raise ValueError("a node cannot be its own parent")
        child.parent = parent_id
        self._nodes[parent_id].children.append(child_id)

    def insert_above(self, node_id: int) -> ClockNode:
        """Insert a new node between ``node_id`` and its parent.

        The new node takes over the edge to the parent and starts at the
        child's location; the caller may move it.  Works for the root
        too (the new node becomes the root).
        """
        self._check_id(node_id)
        child = self._nodes[node_id]
        fresh = self.new_node(location=child.location)
        if child.parent is None:
            if self.root_id != node_id:
                raise ValueError(f"node {node_id} has no parent and is not the root")
            self.root_id = fresh.node_id
        else:
            parent = self._nodes[child.parent]
            parent.children[parent.children.index(node_id)] = fresh.node_id
            fresh.parent = parent.node_id
        child.parent = fresh.node_id
        fresh.children.append(node_id)
        # The snake on the old edge stays with the lower half.
        return fresh

    # -- access ----------------------------------------------------------------

    def node(self, node_id: int) -> ClockNode:
        """The node with the given id (KeyError if absent)."""
        self._check_id(node_id)
        return self._nodes[node_id]

    @property
    def root(self) -> ClockNode:
        if self.root_id is None:
            raise ValueError("tree has no root")
        return self._nodes[self.root_id]

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[ClockNode]:
        return iter(self._nodes.values())

    # -- traversal ---------------------------------------------------------------

    def topo_order(self) -> list[ClockNode]:
        """Nodes in root-first (preorder/BFS-compatible) topological order."""
        if self.root_id is None:
            return []
        order: list[ClockNode] = []
        stack = [self.root_id]
        while stack:
            node = self._nodes[stack.pop()]
            order.append(node)
            # Reverse so the leftmost child is processed first.
            stack.extend(reversed(node.children))
        return order

    def postorder(self) -> list[ClockNode]:
        """Nodes in children-first order."""
        return list(reversed(self.topo_order()))

    def sinks(self) -> list[ClockNode]:
        """All sink leaves, in deterministic (topological) order."""
        return [n for n in self.topo_order() if n.is_sink]

    def leaves(self) -> list[ClockNode]:
        """All leaf nodes, in topological order."""
        return [n for n in self.topo_order() if n.is_leaf]

    def depth(self, node_id: int) -> int:
        """Edge count from the root to ``node_id``."""
        self._check_id(node_id)
        depth = 0
        node = self._nodes[node_id]
        while node.parent is not None:
            node = self._nodes[node.parent]
            depth += 1
        return depth

    def path_to_root(self, node_id: int) -> list[ClockNode]:
        """Nodes from ``node_id`` up to and including the root."""
        self._check_id(node_id)
        path = [self._nodes[node_id]]
        while path[-1].parent is not None:
            path.append(self._nodes[path[-1].parent])
        return path

    def subtree_ids(self, node_id: int) -> list[int]:
        """Ids of all nodes in the subtree rooted at ``node_id`` (inclusive)."""
        self._check_id(node_id)
        result: list[int] = []
        stack = [node_id]
        while stack:
            nid = stack.pop()
            result.append(nid)
            stack.extend(reversed(self._nodes[nid].children))
        return result

    def edges(self) -> list[tuple[ClockNode, ClockNode]]:
        """All (parent, child) pairs in topological order."""
        return [(self._nodes[n.parent], n) for n in self.topo_order()
                if n.parent is not None]

    def edge_length(self, child_id: int) -> float:
        """Manhattan length (plus snake) of the edge into ``child_id``."""
        child = self.node(child_id)
        if child.parent is None:
            raise ValueError(f"node {child_id} has no incoming edge")
        parent = self._nodes[child.parent]
        return parent.location.manhattan_to(child.location) + child.snake

    def validate(self) -> None:
        """Check structural invariants; raise ValueError on corruption."""
        if self.root_id is None:
            raise ValueError("tree has no root")
        reached = {n.node_id for n in self.topo_order()}
        if reached != set(self._nodes):
            missing = set(self._nodes) - reached
            raise ValueError(f"unreachable nodes: {sorted(missing)}")
        for node in self._nodes.values():
            for child_id in node.children:
                if self._nodes[child_id].parent != node.node_id:
                    raise ValueError(
                        f"parent/child mismatch between {node.node_id} and {child_id}")
            if node.is_sink and node.children:
                raise ValueError(f"sink node {node.node_id} has children")

    def fork(self) -> "ClockTree":
        """A copy whose nodes and child lists are its own.

        A node's other fields are numbers or objects nothing writes
        after synthesis (location, sink pin, buffer cell), so one
        shallow copy per node isolates every trim the fork makes.
        """
        twin = ClockTree.__new__(ClockTree)
        nodes: dict[int, ClockNode] = {}
        for node_id, node in self._nodes.items():
            copy = ClockNode.__new__(ClockNode)
            copy.__dict__.update(node.__dict__)
            copy.children = list(node.children)
            nodes[node_id] = copy
        twin._nodes = nodes
        twin._next_id = self._next_id
        twin.root_id = self.root_id
        return twin

    def _check_id(self, node_id: int) -> None:
        if node_id not in self._nodes:
            raise KeyError(f"no node with id {node_id}")
