"""Coupling-induced delta delay on clock sinks.

Model: a victim clock edge switching while an adjacent aggressor
switches the opposite way sees the coupling capacitance Miller-doubled.
The nominal analysis already counts each coupling cap once (quiet
aggressor = grounded); the *extra* capacitance under opposing switching
is therefore ``+1 x Cc``, and by Elmore linearity the resulting delta
delay at a sink is

    dd(sink) = sum_v dC_v * (r_drive + R_shared(v, sink))

where ``R_shared`` is the resistance common to the paths from the stage
driver to the coupling site ``v`` and to the sink.

Two aggregations are reported per flop:

* **worst**: every aggressor switches against the victim in the same
  cycle (the bounding analysis signoff uses), and
* **expected**: each aggressor weighted by its toggle activity and an
  alignment probability (how often its transition lands inside the
  clock edge's timing window).

Delta delay accumulates down the stage chain: a shift on a buffer input
shifts every flop below it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Annotated

from repro.extract.capmodel import WireParasitics
from repro.extract.rcnetwork import ClockRcNetwork, Stage
from repro.netlist.cell import Pin
from repro.units import Dim


@dataclass
class SinkDelta:
    """Crosstalk exposure of one flop clock pin."""

    pin: Pin
    worst: float      # ps, all aggressors opposing
    expected: float   # ps, activity- and alignment-weighted


@dataclass
class CrosstalkReport:
    """Delta-delay analysis of one clock network."""

    sinks: list[SinkDelta] = field(default_factory=list)
    alignment: float = 0.5

    @property
    def worst_delta(self) -> float:
        return max((s.worst for s in self.sinks), default=0.0)

    @property
    def mean_worst_delta(self) -> float:
        if not self.sinks:
            return 0.0
        return sum(s.worst for s in self.sinks) / len(self.sinks)


def _stage_deltas(stage: Stage, parasitics: dict[int, WireParasitics],
                  alignment: float) -> list[tuple[float, float]]:
    """(worst, expected) delta delay for each stage sink, in sink order."""
    nodes = stage.nodes
    # Coupling capacitance injected at each RC node: half of each
    # incident wire's aggressor coupling lands on each of its two ends.
    worst_c = [0.0] * len(nodes)
    exp_c = [0.0] * len(nodes)
    for node in nodes:
        for wire_id, _c_area, _c_rest in node.cap_wire:
            para = parasitics[wire_id]
            worst_c[node.idx] += para.cc_signal / 2.0
            exp_c[node.idx] += sum(e.cc * e.activity for e in para.couplings) \
                * alignment / 2.0

    # Resistance from the driver to each node (driver resistance is
    # common to every path and charged separately below).
    r_path = [0.0] * len(nodes)
    for node in nodes:
        if node.parent is not None:
            r_path[node.idx] = r_path[node.parent] + node.r

    r_drive = stage.driver.r_drive
    results: list[tuple[float, float]] = []
    for sink in stage.sinks:
        on_path = [False] * len(nodes)
        for idx in stage.path_to_root(sink.node_idx):
            on_path[idx] = True
        # meet[v]: deepest ancestor of v that lies on the sink path.
        meet = [0] * len(nodes)
        for node in nodes:  # topo order: parent before child
            if on_path[node.idx]:
                meet[node.idx] = node.idx
            elif node.parent is not None:
                meet[node.idx] = meet[node.parent]
        worst = 0.0
        expected = 0.0
        for node in nodes:
            shared = r_drive + r_path[meet[node.idx]]
            worst += worst_c[node.idx] * shared
            expected += exp_c[node.idx] * shared
        results.append((worst, expected))
    return results


def window_alignment(victim_window: tuple, aggressor_window,
                     clock_period: Annotated[float, Dim.TIME],
                     activity: float) -> float:
    """Probability an aggressor transition lands in the victim's window.

    The aggressor toggles with ``activity`` per cycle, uniformly within
    its switching window (or the whole cycle when it has none); only
    transitions inside the victim clock edge's sensitivity window
    ``(v_lo, v_hi)`` disturb the edge.
    """
    v_lo, v_hi = victim_window
    if aggressor_window is None:
        a_lo, a_hi = 0.0, clock_period
    else:
        a_lo, a_hi = aggressor_window
    width = a_hi - a_lo
    if width <= 0.0:
        return 0.0
    overlap = max(0.0, min(v_hi, a_hi) - max(v_lo, a_lo))
    return activity * min(1.0, overlap / width)


def analyze_crosstalk_windows(network: ClockRcNetwork,
                              parasitics: dict[int, WireParasitics],
                              timing,
                              clock_period: Annotated[float, Dim.TIME],
                              sensitivity: float = 0.0) -> CrosstalkReport:
    """Window-pruned crosstalk analysis.

    Like :func:`analyze_crosstalk`, but the *expected* delta delay
    weights each aggressor by the probability its transition actually
    lands inside the victim clock edge's sensitivity window (centered at
    the flop's arrival, width = ``sensitivity`` or the sink's slew) —
    the timing-window pruning signoff tools apply.  Worst-case numbers
    are identical to the unpruned analysis by construction.

    ``timing`` is a :class:`~repro.timing.arrival.ClockTiming` of the
    same network.
    """
    if clock_period <= 0.0:
        raise ValueError("clock period must be positive")
    slew_of = {s.pin.full_name: s.slew for s in timing.sinks}
    arrival_of = {s.pin.full_name: s.arrival for s in timing.sinks}

    # Stage parents and the via node each chain hop passes through.
    parent_of: dict[int, tuple[int, int]] = {}
    for idx, stage in enumerate(network.stages):
        for sink in stage.sinks:
            if sink.next_stage_tree_id is not None:
                child = network.stage_of_tree_node[sink.next_stage_tree_id]
                parent_of[child] = (idx, sink.node_idx)

    report = CrosstalkReport(alignment=1.0)
    base = analyze_crosstalk(network, parasitics, alignment=1.0)
    worst_of = {s.pin.full_name: s.worst for s in base.sinks}

    for stage_idx, flop in network.flop_sinks():
        pin = flop.sink_pin.full_name
        width = sensitivity if sensitivity > 0.0 else \
            max(slew_of[pin], 1.0)
        arrival = arrival_of[pin] % clock_period
        victim = (arrival - width / 2.0, arrival + width / 2.0)

        expected = 0.0
        idx, via = stage_idx, flop.node_idx
        while True:
            stage = network.stages[idx]
            expected += _stage_expected_for_sink(
                stage, parasitics, via, victim, clock_period)
            if idx not in parent_of:
                break
            idx, via = parent_of[idx]
        report.sinks.append(SinkDelta(pin=flop.sink_pin,
                                      worst=worst_of[pin],
                                      expected=expected))
    return report


def _stage_expected_for_sink(stage: Stage,
                             parasitics: dict[int, WireParasitics],
                             via_node: int, victim_window: tuple,
                             clock_period: float) -> float:
    """Window-weighted expected delta of one stage toward ``via_node``."""
    nodes = stage.nodes
    r_path = [0.0] * len(nodes)
    for node in nodes:
        if node.parent is not None:
            r_path[node.idx] = r_path[node.parent] + node.r
    on_path = [False] * len(nodes)
    for idx in stage.path_to_root(via_node):
        on_path[idx] = True
    meet = [0] * len(nodes)
    for node in nodes:
        if on_path[node.idx]:
            meet[node.idx] = node.idx
        elif node.parent is not None:
            meet[node.idx] = meet[node.parent]
    r_drive = stage.driver.r_drive
    expected = 0.0
    for node in nodes:
        shared = r_drive + r_path[meet[node.idx]]
        for wire_id, _ca, _cr in node.cap_wire:
            for entry in parasitics[wire_id].couplings:
                p = window_alignment(victim_window, entry.window,
                                     clock_period, entry.activity)
                expected += (entry.cc / 2.0) * shared * p
    return expected


def analyze_crosstalk(network: ClockRcNetwork,
                      parasitics: dict[int, WireParasitics],
                      alignment: float = 0.5) -> CrosstalkReport:
    """Compute per-flop delta delays over the whole clock network."""
    if not 0.0 <= alignment <= 1.0:
        raise ValueError(f"alignment must be in [0, 1], got {alignment}")
    report = CrosstalkReport(alignment=alignment)
    # (stage idx, accumulated worst, accumulated expected)
    work: list[tuple[int, float, float]] = [(network.root_stage, 0.0, 0.0)]
    while work:
        stage_idx, acc_w, acc_e = work.pop()
        stage = network.stages[stage_idx]
        deltas = _stage_deltas(stage, parasitics, alignment)
        for sink, (worst, expected) in zip(stage.sinks, deltas):
            if sink.is_flop:
                report.sinks.append(SinkDelta(
                    pin=sink.sink_pin,
                    worst=acc_w + worst,
                    expected=acc_e + expected,
                ))
            else:
                child = network.stage_of_tree_node[sink.next_stage_tree_id]
                work.append((child, acc_w + worst, acc_e + expected))
    return report
