"""Post-routing skew refinement by hierarchical delay trimming.

The zero-skew embedding balances an idealised (unbuffered, isolated-RC)
model; after buffering, track snapping and neighbor-aware extraction, a
residual skew of 1-3% of latency remains.  This pass closes the loop
the way production CTS does with delay trimming: measure real arrivals,
then insert controlled delay ahead of the early sinks until they match
the latest one.

Two properties make the scheme cheap and stable:

* **Per-stage isolation.**  Trims live at buffer outputs (a dummy load
  pad or a series snake wire — whichever costs less capacitance, see
  :mod:`repro.cts.delaytrim`).  A trim at a buffer shifts exactly the
  subtree below it and is invisible upstream, so corrections never
  chase each other.
* **Hierarchical distribution.**  The *common* part of a subtree's gap
  is absorbed once, at the subtree's own root stage — where the stage
  load is large and a series snake buys picoseconds for very little
  capacitance — instead of being paid repeatedly in every leaf stage.
  Only the differential residue is trimmed at the leaves.  Without
  this, trim capacitance scales with (leaf stages x common gap) and
  dominates the power of large trees.

Trims are re-derived from scratch on every run (the ``trim_*`` fields
are zeroed first), so repeated refinement cannot ratchet capacitance
upward.  A slew guard caps each stage's trim so the *sink* transition
(driver slew RSS'd with the wire spread) stays inside the budget.

The added capacitance is real power cost (it lands in the power report
as delay-trim capacitance) — skew trimming is never free.

Each refine extracts its routing once.  Wire parasitics read only the
routing (a wire's own geometry and rule plus its track neighbors'),
and a trim writes only the tree (root pads and snakes), so after a
trim pass only the RC network is stale: an engine-free refine
rebuilds the network over the parasitics it already has, and a refine
driven by an :class:`~repro.engine.AnalysisEngine` rebuilds only the
trimmed stages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.cts.delaytrim import TrimChoice, cheapest_trim
from repro.cts.tree import ClockTree
from repro.extract.extractor import Extraction, extract
from repro.extract.rcnetwork import build_rc_network
from repro.route.router import RoutingResult
from repro.tech.technology import Technology
from repro.timing.arrival import ClockTiming, analyze_clock_timing
from repro.timing.slew import LN9


@dataclass(frozen=True)
class RefineResult:
    """Outcome of a skew-refinement run."""

    extraction: Extraction
    timing: ClockTiming
    iterations: int
    initial_skew: float
    final_skew: float
    added_pad_cap: float  # total trim capacitance, fF


def refine_skew(tree: ClockTree, routing: RoutingResult, tech: Technology,
                max_iterations: int = 3, target_skew: float = 1.0,
                damping: float = 0.9,
                offsets: dict | None = None,
                engine=None) -> RefineResult:
    """Iteratively trim early subtrees until all sinks meet the latest one.

    ``offsets`` (useful skew) maps flop clock-pin names to desired
    arrival offsets in ps: the trimmer equalises *offset-corrected*
    arrivals, so a flop with offset +10 lands 10 ps after the common
    base.  ``final_skew``/``initial_skew`` are reported in the corrected
    frame when offsets are given.

    Without ``engine``, the routing is extracted once and each trim
    pass rebuilds only the RC network over those wire parasitics —
    exactly what a fresh :func:`~repro.extract.extract` would return,
    because a trim writes the tree and parasitics read the routing.
    With ``engine`` (an :class:`~repro.engine.AnalysisEngine` over the
    current routing), each trim pass rebuilds only the touched stages
    — a trim moves nothing but its own stage's root pad/snake.

    Returns the final extraction and timing so callers don't re-analyze.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError(f"damping must be in (0, 1], got {damping}")
    offsets = offsets or {}

    # Trims are re-derived from scratch every run (base pads/snakes from
    # buffer insertion stay) so repeated refinement never ratchets
    # capacitance upward.
    stale: set[int] = set()
    for node in tree:
        if node.trim_pad > 0.0 or node.trim_snake > 0.0:
            stale.add(node.node_id)
        node.trim_pad = 0.0
        node.trim_snake = 0.0

    rule = tech.default_rule
    layer_h = tech.layer_for(horizontal=True)
    snake_r = layer_h.resistance_per_um(rule.width_on(layer_h))
    snake_c = layer_h.isolated_cap_per_um(rule.width_on(layer_h))

    if engine is None:
        extraction = extract(tree, routing)
        timing = analyze_clock_timing(extraction.network, tech)
    else:
        if stale:
            engine.rebuild_stages(stale)
        extraction = engine.extraction
        timing = engine.static_timing()
    initial_skew = _corrected_skew(timing, offsets)
    iterations = 0
    for _ in range(max_iterations):
        if _corrected_skew(timing, offsets) <= target_skew:
            break
        iterations += 1
        touched = _trim_once(tree, extraction, timing, tech,
                             snake_r, snake_c, damping, target_skew, offsets)
        if not touched:
            break
        if engine is None:
            extraction.network = build_rc_network(tree, routing,
                                                  extraction.wires)
            timing = analyze_clock_timing(extraction.network, tech)
        else:
            engine.rebuild_stages(touched)
            timing = engine.static_timing()

    added_total = sum(n.trim_pad + n.trim_snake * n.snake_c_per_um
                      for n in tree)
    return RefineResult(
        extraction=extraction,
        timing=timing,
        iterations=iterations,
        initial_skew=initial_skew,
        final_skew=_corrected_skew(timing, offsets),
        added_pad_cap=added_total,
    )


def _corrected_skew(timing: ClockTiming, offsets: dict) -> float:
    """Skew in the offset-corrected frame (= plain skew when empty)."""
    if not offsets:
        return timing.skew
    corrected = [s.arrival - offsets.get(s.pin.full_name, 0.0)
                 for s in timing.sinks]
    return max(corrected) - min(corrected)


def _trim_once(tree: ClockTree, extraction: Extraction, timing: ClockTiming,
               tech: Technology, snake_r: float, snake_c: float,
               damping: float, target_skew: float,
               offsets: dict) -> set[int]:
    """One hierarchical trim pass; returns the trimmed tree node ids.

    Gaps are measured in the offset-corrected frame, so useful-skew
    targets fall out of the same machinery.
    """
    network = extraction.network
    arrival_of = {s.pin.full_name:
                  s.arrival - offsets.get(s.pin.full_name, 0.0)
                  for s in timing.sinks}
    latest = max(arrival_of.values())
    slew_of_pin = {s.pin.full_name: s.slew for s in timing.sinks}

    # Stage tree: children and per-stage flop gap minima.
    children: dict[int, list[int]] = {i: [] for i in range(len(network.stages))}
    own_min_gap: dict[int, float] = {}
    worst_sink_slew: dict[int, float] = {}
    for idx, stage in enumerate(network.stages):
        for sink in stage.sinks:
            if sink.is_flop:
                pin = sink.sink_pin.full_name
                gap = latest - arrival_of[pin]
                if idx not in own_min_gap or gap < own_min_gap[idx]:
                    own_min_gap[idx] = gap
                slew = slew_of_pin[pin]
                if slew > worst_sink_slew.get(idx, 0.0):
                    worst_sink_slew[idx] = slew
            else:
                child = network.stage_of_tree_node[sink.next_stage_tree_id]
                children[idx].append(child)

    # Subtree min gap, bottom-up (stages were built parents-first).
    subtree_min: dict[int, float] = {}
    for idx in reversed(range(len(network.stages))):
        m = own_min_gap.get(idx, math.inf)
        for child in children[idx]:
            m = min(m, subtree_min[child])
        subtree_min[idx] = m

    touched: set[int] = set()
    # Top-down: absorb each subtree's common gap at its own root stage.
    # The network root absorbs nothing — delaying everyone equally only
    # adds latency — so the walk starts at its children.
    stack: list[tuple[int, float]] = [
        (child, 0.0) for child in children[network.root_stage]]
    while stack:
        idx, absorbed = stack.pop()
        take = max(0.0, subtree_min[idx] - absorbed)
        if take > target_skew / 2.0:
            trimmed = _apply_stage_trim(tree, network, idx, damping * take,
                                        worst_sink_slew, tech,
                                        snake_r, snake_c)
            if trimmed is not None:
                touched.add(trimmed)
                absorbed += damping * take
        for child in children[idx]:
            stack.append((child, absorbed))
    return touched


def _apply_stage_trim(tree: ClockTree, network, stage_idx: int, gap: float,
                      worst_sink_slew: dict[int, float], tech: Technology,
                      snake_r: float, snake_c: float) -> int | None:
    """Insert ``gap`` ps of delay at one stage, respecting slew limits.

    Returns the trimmed tree node id, or None if the slew guard killed
    the trim entirely.
    """
    stage = network.stages[stage_idx]
    driver = stage.driver
    load = stage.total_cap
    trim = cheapest_trim(gap, driver.r_drive, load, snake_r, snake_c)
    trim = _slew_limited(trim, gap, stage_idx, stage, worst_sink_slew, tech,
                         snake_r, snake_c)
    if trim.added_cap <= 0.0:
        return None
    node = tree.node(stage.tree_node_id)
    if node.snake_r_per_um <= 0.0:
        node.snake_r_per_um = snake_r
        node.snake_c_per_um = snake_c
    node.trim_pad += trim.pad_cap
    node.trim_snake += trim.snake_len
    return node.node_id


def _slew_limited(trim: TrimChoice, gap: float, stage_idx: int, stage,
                  worst_sink_slew: dict[int, float], tech: Technology,
                  snake_r: float, snake_c: float,
                  margin: float = 0.98) -> TrimChoice:
    """Scale a trim down until the stage's worst *sink* slew stays legal.

    The sink slew composes the driver transition with the wire spread
    (RSS); a load pad raises the driver term, a snake adds wire delay
    whose 10/90 spread is ``ln 9`` times it.  Halve the trim until the
    predicted sink slew fits (give up below 1% of the original).
    """
    driver = stage.driver
    load = stage.total_cap
    budget = margin * tech.max_slew
    current_sink = worst_sink_slew.get(stage_idx, 0.0)
    current_driver = driver.output_slew(load)
    # Wire-spread contribution already present at the worst sink.
    wire_sq = max(0.0, current_sink ** 2 - current_driver ** 2)

    scale = 1.0
    while scale > 0.01:
        pad = trim.pad_cap * scale
        snake = trim.snake_len * scale
        new_load = load + pad + snake * snake_c
        if new_load > driver.max_cap:
            scale /= 2.0
            continue
        new_driver = driver.output_slew(new_load)
        snake_delay = snake_r * snake * (load + snake_c * snake / 2.0)
        new_wire = math.sqrt(wire_sq) + LN9 * snake_delay
        predicted = math.sqrt(new_driver ** 2 + new_wire ** 2)
        if predicted <= budget or current_sink > budget:
            # (If the stage is already over budget from elsewhere, the
            # trim is not the cause; let the optimizer's slew planner
            # deal with it and don't block skew repair entirely.)
            if current_sink > budget and predicted > current_sink + 1e-9:
                scale /= 2.0
                continue
            break
        scale /= 2.0
    if scale <= 0.01:
        return TrimChoice(pad_cap=0.0, snake_len=0.0, added_cap=0.0)
    return TrimChoice(pad_cap=trim.pad_cap * scale,
                      snake_len=trim.snake_len * scale,
                      added_cap=trim.added_cap * scale)
