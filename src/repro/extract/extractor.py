"""Drives extraction over a routing result.

Extraction is the inner-loop cost of the optimizer: every rule
re-assignment changes a handful of wires, and everything the analyses
read must follow.  Two structures keep that incremental:

* the *neighbor dependency index* — which victims' coupling read a
  given wire while it was extracted.  A rule change on wire ``w``
  dirties ``w`` plus every recorded dependent (their spacing to ``w``
  depends on ``w``'s width and rule guarantees), and nothing else.
* cached capacitance totals, invalidated whenever any wire's
  parasitics are stored, so the power analysis stops paying an
  O(#wires) sum per property access.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Annotated, Iterable, Optional

from repro import obs
from repro.cts.tree import ClockTree
from repro.extract.capmodel import WireParasitics, extract_wire
from repro.extract.rcnetwork import ClockRcNetwork, build_rc_network
from repro.route.router import RoutingResult
from repro.units import Dim


@dataclass
class Extraction:
    """Extracted parasitics plus the assembled clock RC network.

    Re-extraction after a rule re-assignment is cheap: only the touched
    wires and their recorded coupling dependents change, and the network
    is patched in place instead of rebuilt.
    """

    routing: RoutingResult
    wires: dict[int, WireParasitics] = field(default_factory=dict)
    network: ClockRcNetwork = field(default_factory=ClockRcNetwork)
    #: cached totals; ``None`` means stale (recomputed lazily)
    _wire_cap_total: Optional[float] = \
        field(default=None, repr=False, compare=False)
    _coupling_total: Optional[float] = \
        field(default=None, repr=False, compare=False)
    #: victim wire id -> neighbor wire ids its extraction read
    _neighbor_fwd: dict[int, frozenset[int]] = \
        field(default_factory=dict, repr=False, compare=False)
    #: wire id -> victim wire ids whose extraction read it
    _neighbor_rev: dict[int, set[int]] = \
        field(default_factory=dict, repr=False, compare=False)

    @property
    def clock_wire_cap(self) -> Annotated[float, Dim.CAPACITANCE]:
        """Total clock wire capacitance counted for power, fF."""
        if self._wire_cap_total is None:
            self._wire_cap_total = sum(
                self.wires[w.wire_id].c_switched
                for w in self.routing.clock_wires)
        return self._wire_cap_total

    @property
    def clock_coupling_cap(self) -> Annotated[float, Dim.CAPACITANCE]:
        """Total clock-to-signal coupling capacitance, fF."""
        if self._coupling_total is None:
            self._coupling_total = sum(
                self.wires[w.wire_id].cc_signal
                for w in self.routing.clock_wires)
        return self._coupling_total

    def set_wire(self, wire_id: int, para: WireParasitics) -> None:
        """Store one wire's parasitics and invalidate cached totals."""
        self.wires[wire_id] = para
        self._wire_cap_total = None
        self._coupling_total = None

    def record_neighbors(self, wire_id: int,
                         neighbor_ids: Iterable[int]) -> None:
        """Note which wires ``wire_id``'s extraction depended on."""
        new = frozenset(neighbor_ids)
        old = self._neighbor_fwd.get(wire_id, frozenset())
        for gone in old - new:
            deps = self._neighbor_rev.get(gone)
            if deps is not None:
                deps.discard(wire_id)
        for added in new - old:
            self._neighbor_rev.setdefault(added, set()).add(wire_id)
        self._neighbor_fwd[wire_id] = new

    def cached_cap_totals(self) -> tuple[Optional[float], Optional[float]]:
        """The raw cached ``(wire cap, coupling cap)`` totals, no recompute.

        ``None`` entries mean "stale, will be recomputed lazily" — the
        verifier's cap-total oracle only diffs the non-``None`` ones
        against a from-scratch sum.
        """
        return self._wire_cap_total, self._coupling_total

    def neighbor_index(self) -> tuple[dict[int, frozenset[int]],
                                      dict[int, frozenset[int]]]:
        """Copies of the (forward, reverse) neighbor dependency maps."""
        fwd = dict(self._neighbor_fwd)
        rev = {wid: frozenset(deps)
               for wid, deps in self._neighbor_rev.items()}
        return fwd, rev

    def fork(self, routing: RoutingResult) -> "Extraction":
        """This extraction over ``routing`` (a fork of its own routing).

        The parasitics and neighbor maps are copied, since re-extraction
        replaces their entries; the parasitics records themselves are
        never written in place and are shared.
        """
        return Extraction(
            routing=routing, wires=dict(self.wires),
            network=self.network.fork(),
            _wire_cap_total=self._wire_cap_total,
            _coupling_total=self._coupling_total,
            _neighbor_fwd=dict(self._neighbor_fwd),
            _neighbor_rev={wire_id: set(deps)
                           for wire_id, deps in self._neighbor_rev.items()})

    def dependents_of(self, wire_ids: Iterable[int]) -> set[int]:
        """Touched wires plus every victim whose coupling reads them."""
        dirty = set(wire_ids)
        for wire_id in tuple(dirty):
            dirty |= self._neighbor_rev.get(wire_id, set())
        return dirty


def _extract_one(extraction: Extraction, wire) -> WireParasitics:
    """Extract one wire, updating parasitics and the dependency index."""
    neighbors = extraction.routing.tracks.neighbors_of(wire)
    extraction.record_neighbors(
        wire.wire_id, (nb.neighbor_id for nb in neighbors))
    para = extract_wire(wire, neighbors)
    extraction.set_wire(wire.wire_id, para)
    return para


def extract(tree: ClockTree, routing: RoutingResult) -> Extraction:
    """Extract every clock wire and build the clock RC network.

    Signal wires are not individually extracted (they only matter as
    aggressors, which the clock-side extraction already captures), which
    keeps extraction proportional to the clock, not the design.
    """
    wires = routing.clock_wires
    with obs.span("extract.full", wires=len(wires)):
        result = Extraction(routing=routing)
        for wire in wires:
            _extract_one(result, wire)
        result.network = build_rc_network(tree, routing, result.wires)
    return result


def incremental_re_extract(extraction: Extraction,
                           wire_ids: Iterable[int],
                           ) -> tuple[set[int], set[int]]:
    """Re-extract touched wires and patch the network in place.

    The dirty set is the closure of ``wire_ids`` over the neighbor
    dependency index: a rule change moves the touched wire's width and
    guaranteed spacing, which its track neighbors' coupling caps read.
    Topology never changes under a rule re-assignment, so every dirty
    wire maps onto an existing RC node pair via
    :meth:`ClockRcNetwork.patch_wire`.

    Returns ``(dirty wire ids, patched stage indices)`` for the
    analysis engine's dirty-tracking.
    """
    routing = extraction.routing
    dirty = extraction.dependents_of(wire_ids)
    stages: set[int] = set()
    for wire_id in sorted(dirty):
        wire = routing.tracks.wire(wire_id)
        para = _extract_one(extraction, wire)
        stages.add(extraction.network.patch_wire(wire_id, para))
    return dirty, stages

