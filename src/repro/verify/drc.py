"""Domain DRC/ERC checks over routed geometry and the RC network.

Every check walks already-built state — no analysis is re-run.  See
``docs/VERIFY.md`` for the severity policy; in short: structural
corruption is ERROR, model-vs-geometry idealisation gaps and quality
(budget) violations are WARN.
"""

from __future__ import annotations

import math
from typing import Iterator

from repro.reliability.em import analyze_em
from repro.route.wires import RoutedWire
from repro.verify.context import VerifyContext
from repro.verify.diagnostics import Diagnostic, Severity
from repro.verify.registry import Check

#: Relative tolerance for float identities that hold exactly by
#: construction (same arithmetic, possibly different summation order).
REL_TOL = 1e-9
ABS_TOL = 1e-12


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def check_track_overlap(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """No two wires may occupy overlapping spans of the same track.

    The router's ``nearest_free_track`` guarantees this except when it
    overflows (no free track in the search window) and falls back to a
    double-booked placement, counting the event.  Each overflow event
    places ONE wire on an occupied track — possibly across many
    existing wires — so the budget is attributed per offending wire,
    not per overlapping pair: if removing at most ``overflows`` wires
    (chosen greedily by overlap degree) explains every overlap, the
    overlaps are WARN (known congestion fallback); anything left over
    is bookkeeping corruption.
    """
    tracks = ctx.routing.tracks
    pairs: list[tuple[str, int, int, int, float]] = []
    for lname, track, intervals in tracks.occupancy():
        # Intervals are lo-sorted: sweep, keeping the active set.
        active: list[tuple[float, int]] = []  # (hi, wire_id)
        for lo, hi, wire_id in intervals:
            active = [(h, w) for h, w in active if h > lo]
            for h, other_id in active:
                overlap = min(h, hi) - lo
                if overlap > 0.0:
                    pairs.append((lname, track, other_id, wire_id, overlap))
            active.append((hi, wire_id))
    pairs.sort()
    # Greedy attribution: repeatedly blame the wire involved in the
    # most unexplained overlaps, up to the recorded overflow count.
    degree: dict[int, int] = {}
    for _, _, a, b, _ in pairs:
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    blamed: set[int] = set()
    remaining = list(pairs)
    for _ in range(tracks.overflows):
        if not remaining:
            break
        worst = max(degree, key=lambda w: degree[w])
        blamed.add(worst)
        for _, _, a, b, _ in remaining:
            if worst in (a, b):
                degree[a] -= 1
                degree[b] -= 1
        remaining = [p for p in remaining if worst not in (p[2], p[3])]
    for lname, track, a, b, overlap in pairs:
        severity = (Severity.WARN if a in blamed or b in blamed
                    else Severity.ERROR)
        yield Diagnostic(
            rule="track-overlap", severity=severity,
            message=f"wires {a} and {b} overlap by {overlap:.3f} um on "
                    f"{lname}/track {track}"
                    + (" (router overflow fallback)"
                       if severity == Severity.WARN else ""),
            wire_id=b, obj=f"{lname}/track {track}",
            hint="double registration or an is_free/register mismatch"
            if severity == Severity.ERROR else
            "congestion: enlarge the die or the search window")


def check_blockage_overlap(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """No wire may cross a hard keep-out span on its own track."""
    tracks = ctx.routing.tracks
    for wire in tracks.iter_wires():
        if wire.segment.length <= 0.0:
            continue  # zero-span stubs occupy no track length
        lo, hi = wire.segment.lo, wire.segment.hi
        for b_lo, b_hi in tracks.blocked_spans(wire.layer.name, wire.track):
            if b_lo < hi and b_hi > lo:
                yield Diagnostic(
                    rule="blockage-overlap", severity=Severity.ERROR,
                    message=f"wire {wire.wire_id} [{lo:.2f}, {hi:.2f}] "
                            f"crosses keep-out [{b_lo:.2f}, {b_hi:.2f}] on "
                            f"{wire.layer.name}/track {wire.track}",
                    wire_id=wire.wire_id,
                    obj=f"{wire.layer.name}/track {wire.track}",
                    hint="the macro-avoid router must split segments "
                         "around blockages before placement")


def check_shield_continuity(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """Shielded wires need both adjacent tracks available for shields.

    A shield that cannot physically exist (the wire sits on the first or
    last track of the grid) is an ERROR — the extraction models coupling
    to shields that have nowhere to be drawn.  Foreign wires or
    keep-outs overlapping the shield tracks break shield continuity:
    WARN, because the post-route assigner works on fixed signal
    geometry and the model knowingly idealises the shields in.
    """
    tracks = ctx.routing.tracks
    grid = tracks.grid
    for wire in ctx.routing.clock_wires:
        if not wire.shielded:
            continue
        n = grid.num_tracks(wire.layer)
        for side in (-1, +1):
            shield_track = wire.track + side
            if shield_track < 0 or shield_track >= n:
                yield Diagnostic(
                    rule="shield-continuity", severity=Severity.ERROR,
                    message=f"shielded wire {wire.wire_id} on "
                            f"{wire.layer.name}/track {wire.track} has no "
                            f"track {shield_track} for its "
                            f"{'lower' if side < 0 else 'upper'} shield",
                    wire_id=wire.wire_id,
                    obj=f"{wire.layer.name}/track {shield_track}",
                    hint="do not shield wires on the grid boundary")
                continue
            lo, hi = wire.segment.lo, wire.segment.hi
            if hi <= lo:
                continue
            gaps: list[tuple[float, float, str]] = []
            for lname, track, intervals in tracks.occupancy():
                if lname != wire.layer.name or track != shield_track:
                    continue
                for o_lo, o_hi, other_id in intervals:
                    if o_lo < hi and o_hi > lo:
                        gaps.append((o_lo, o_hi, f"wire {other_id}"))
            for b_lo, b_hi in tracks.blocked_spans(wire.layer.name,
                                                   shield_track):
                if b_lo < hi and b_hi > lo:
                    gaps.append((b_lo, b_hi, "keep-out"))
            for g_lo, g_hi, what in sorted(gaps):
                yield Diagnostic(
                    rule="shield-continuity", severity=Severity.WARN,
                    message=f"shield of wire {wire.wire_id} on "
                            f"{wire.layer.name}/track {shield_track} is "
                            f"broken over [{max(g_lo, lo):.2f}, "
                            f"{min(g_hi, hi):.2f}] by {what}",
                    wire_id=wire.wire_id,
                    obj=f"{wire.layer.name}/track {shield_track}",
                    hint="shield coverage is partial; coupling is "
                         "under-modelled over the gap")


def check_ndr_spacing(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """Spacing-NDR wires whose guarantee the literal geometry breaks.

    The post-route assigner upgrades rules on fixed geometry, so the
    extractor *clamps* neighbor spacing up to the rule guarantee — the
    model is self-consistent, but the drawn geometry may not honor it.
    Each neighbor physically closer than the guaranteed spacing is a
    WARN: it marks where a real router would have to rip up and shove.
    """
    tracks = ctx.routing.tracks
    grid = tracks.grid
    occupancy = {(lname, track): intervals
                 for lname, track, intervals in tracks.occupancy()}
    for wire in ctx.routing.clock_wires:
        guaranteed = wire.guaranteed_spacing()
        if guaranteed <= wire.layer.min_spacing or wire.shielded:
            continue
        layer = wire.layer
        lo, hi = wire.segment.lo, wire.segment.hi
        if hi <= lo:
            continue
        max_step = int(guaranteed / layer.pitch) + 2
        for step in range(1, max_step + 1):
            for track in (wire.track - step, wire.track + step):
                if track < 0 or track >= grid.num_tracks(layer):
                    continue
                for o_lo, o_hi, other_id in occupancy.get(
                        (layer.name, track), ()):
                    if o_lo >= hi or o_hi <= lo:
                        continue
                    other = tracks.wire(other_id)
                    spacing = grid.edge_spacing(layer, wire.track,
                                                wire.width, track,
                                                other.width)
                    if spacing < guaranteed - ABS_TOL:
                        yield Diagnostic(
                            rule="ndr-spacing", severity=Severity.WARN,
                            message=f"wire {wire.wire_id} "
                                    f"({wire.rule.name.value}) guarantees "
                                    f"{guaranteed:.3f} um spacing but wire "
                                    f"{other_id} sits {spacing:.3f} um away "
                                    f"on {layer.name}/track {track}",
                            wire_id=wire.wire_id,
                            obj=f"{layer.name}/track {track}",
                            hint="extraction clamps this spacing up to "
                                 "the guarantee; geometry does not move")


def check_rc_topology(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """Each stage is a rooted tree; the stage graph is a rooted tree too.

    Node invariants: dense ``idx`` numbering, node 0 is the single
    parentless root, and parents precede children (the topological
    order every downstream accumulation relies on).  Stage invariants:
    ``stage_of_tree_node`` is the exact inverse of stage identity, each
    sink is a flop pin xor a next-stage link, and every stage is
    reachable from ``root_stage`` exactly once.
    """
    network = ctx.extraction.network
    for stage_idx, stage in enumerate(network.stages):
        for i, node in enumerate(stage.nodes):
            if node.idx != i:
                yield Diagnostic(
                    rule="rc-topology", severity=Severity.ERROR,
                    message=f"node at position {i} carries idx {node.idx}",
                    stage=stage_idx, node=i,
                    hint="stage rebuild must renumber nodes densely")
                continue
            if i == 0:
                if node.parent is not None:
                    yield Diagnostic(
                        rule="rc-topology", severity=Severity.ERROR,
                        message=f"stage root has parent {node.parent}",
                        stage=stage_idx, node=0)
            elif node.parent is None or not 0 <= node.parent < i:
                yield Diagnostic(
                    rule="rc-topology", severity=Severity.ERROR,
                    message=f"node {i} has parent {node.parent}; parents "
                            f"must precede children",
                    stage=stage_idx, node=i,
                    hint="a cycle or forward reference breaks every "
                         "downstream-cap accumulation")
        mapped = network.stage_of_tree_node.get(stage.tree_node_id)
        if mapped != stage_idx:
            yield Diagnostic(
                rule="rc-topology", severity=Severity.ERROR,
                message=f"stage_of_tree_node[{stage.tree_node_id}] is "
                        f"{mapped}, expected {stage_idx}",
                stage=stage_idx)
        for sink in stage.sinks:
            if not 0 <= sink.node_idx < len(stage.nodes):
                yield Diagnostic(
                    rule="rc-topology", severity=Severity.ERROR,
                    message=f"sink node index {sink.node_idx} out of range",
                    stage=stage_idx)
            if (sink.sink_pin is None) == (sink.next_stage_tree_id is None):
                yield Diagnostic(
                    rule="rc-topology", severity=Severity.ERROR,
                    message="sink must be a flop pin xor a next-stage link",
                    stage=stage_idx, node=sink.node_idx)
            elif (sink.next_stage_tree_id is not None
                  and sink.next_stage_tree_id not in
                  network.stage_of_tree_node):
                yield Diagnostic(
                    rule="rc-topology", severity=Severity.ERROR,
                    message=f"sink links to unknown stage tree node "
                            f"{sink.next_stage_tree_id}",
                    stage=stage_idx, node=sink.node_idx)
    # Stage-graph reachability: every stage visited exactly once.
    if not 0 <= network.root_stage < len(network.stages):
        yield Diagnostic(
            rule="rc-topology", severity=Severity.ERROR,
            message=f"root_stage {network.root_stage} out of range")
        return
    seen: set[int] = set()
    work = [network.root_stage]
    while work:
        idx = work.pop()
        if idx in seen:
            yield Diagnostic(
                rule="rc-topology", severity=Severity.ERROR,
                message=f"stage {idx} reached twice (stage graph cycle "
                        f"or diamond)", stage=idx)
            continue
        seen.add(idx)
        work.extend(network.stage_children(idx))
    for idx in range(len(network.stages)):
        if idx not in seen:
            yield Diagnostic(
                rule="rc-topology", severity=Severity.ERROR,
                message=f"stage {idx} unreachable from the root stage",
                stage=idx,
                hint="orphan stages silently drop their flops from "
                     "every analysis")


def check_rc_values(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """R/C entries must be physical: no negative values, wires resistive.

    A negative resistance or capacitance silently corrupts every Elmore
    product downstream; a zero-resistance wire node marks a degenerate
    wire the router should not have emitted.
    """
    network = ctx.extraction.network
    for stage_idx, stage in enumerate(network.stages):
        if stage.pad_cap < 0.0 or stage.snake_cap < 0.0:
            yield Diagnostic(
                rule="rc-values", severity=Severity.ERROR,
                message=f"negative pad/snake cap ({stage.pad_cap:.4f}, "
                        f"{stage.snake_cap:.4f}) fF",
                stage=stage_idx)
        for node in stage.nodes:
            if node.r < 0.0:
                yield Diagnostic(
                    rule="rc-values", severity=Severity.ERROR,
                    message=f"negative resistance {node.r:.6f} kOhm",
                    stage=stage_idx, node=node.idx, wire_id=node.wire_id)
            elif node.wire_id is not None and node.r <= 0.0:
                yield Diagnostic(
                    rule="rc-values", severity=Severity.WARN,
                    message="wire node with zero resistance "
                            "(degenerate wire)",
                    stage=stage_idx, node=node.idx, wire_id=node.wire_id)
            if node.cap_fixed < 0.0:
                yield Diagnostic(
                    rule="rc-values", severity=Severity.ERROR,
                    message=f"negative fixed cap {node.cap_fixed:.6f} fF",
                    stage=stage_idx, node=node.idx)
            for wid, c_area_half, c_rest_half in node.cap_wire:
                if c_area_half < 0.0 or c_rest_half < 0.0:
                    yield Diagnostic(
                        rule="rc-values", severity=Severity.ERROR,
                        message=f"negative wire cap halves "
                                f"({c_area_half:.6f}, {c_rest_half:.6f}) fF",
                        stage=stage_idx, node=node.idx, wire_id=wid)


def check_rc_wire_sites(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """Clock wires, RC nodes, and parasitics must correspond one-to-one.

    Every clock wire of the routing appears as exactly one RC node's
    incoming wire and carries a parasitics entry; every RC wire node
    refers back to a registered clock wire.  Any gap means an analysis
    is reading (or missing) state the others do not see.
    """
    network = ctx.extraction.network
    wires = ctx.extraction.wires
    routed = {w.wire_id for w in ctx.routing.clock_wires}
    seen: dict[int, tuple[int, int]] = {}
    for stage_idx, stage in enumerate(network.stages):
        for node in stage.nodes:
            if node.wire_id is None:
                continue
            if node.wire_id in seen:
                prev_stage, prev_node = seen[node.wire_id]
                yield Diagnostic(
                    rule="rc-wire-sites", severity=Severity.ERROR,
                    message=f"wire {node.wire_id} owns RC nodes in stage "
                            f"{prev_stage} (node {prev_node}) and stage "
                            f"{stage_idx} (node {node.idx})",
                    stage=stage_idx, node=node.idx, wire_id=node.wire_id)
            seen[node.wire_id] = (stage_idx, node.idx)
            if node.wire_id not in routed:
                yield Diagnostic(
                    rule="rc-wire-sites", severity=Severity.ERROR,
                    message=f"RC node refers to unrouted wire "
                            f"{node.wire_id}",
                    stage=stage_idx, node=node.idx, wire_id=node.wire_id)
            if node.wire_id not in wires:
                yield Diagnostic(
                    rule="rc-wire-sites", severity=Severity.ERROR,
                    message=f"no parasitics extracted for wire "
                            f"{node.wire_id}",
                    stage=stage_idx, node=node.idx, wire_id=node.wire_id)
    for wire_id in sorted(routed - set(seen)):
        yield Diagnostic(
            rule="rc-wire-sites", severity=Severity.ERROR,
            message=f"clock wire {wire_id} is routed but absent from the "
                    f"RC network", wire_id=wire_id,
            hint="the stage builder dropped an edge wire")
    for wire_id in sorted(routed - set(wires)):
        yield Diagnostic(
            rule="rc-wire-sites", severity=Severity.ERROR,
            message=f"clock wire {wire_id} has no parasitics entry",
            wire_id=wire_id)


def check_em_width(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """Width floors: drawn width >= layer minimum; EM budgets respected.

    A drawn width below the layer minimum is a hard DRC (ERROR) — the
    rule lattice cannot produce one, so it marks a corrupted rule.  EM
    utilisation above 1.0 is a quality violation a legal (infeasible)
    flow state can carry: WARN.
    """
    for wire in ctx.routing.clock_wires:
        if wire.width < wire.layer.min_width - ABS_TOL:
            yield Diagnostic(
                rule="em-width", severity=Severity.ERROR,
                message=f"drawn width {wire.width:.4f} um below layer "
                        f"minimum {wire.layer.min_width:.4f} um",
                wire_id=wire.wire_id, obj=wire.layer.name,
                hint="routing rules only widen; the rule object is "
                     "corrupt")
    if ctx.freq is None:
        return
    report = analyze_em(ctx.extraction.network, ctx.routing,
                        ctx.tech.vdd, ctx.freq)
    for record in report.violations:
        yield Diagnostic(
            rule="em-width", severity=Severity.WARN,
            message=f"EM utilisation {record.utilization:.2f} exceeds 1.0 "
                    f"({record.density:.0f} of {record.jmax:.0f} uA/um^2)",
            wire_id=record.wire_id,
            hint="widen the wire or re-synthesize with smaller stages")


def check_delay_sanity(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """Per-sink stage Elmore delays must be non-negative and sub-cycle.

    A negative Elmore contribution is arithmetically impossible with
    physical R/C — it marks sign corruption upstream.  A single stage's
    wire delay beyond one clock period is unit-breakage territory (a
    fF/pF or ps/ns mix-up produces exactly this signature), flagged
    WARN because period-relative limits are policy, not structure.
    """
    network = ctx.extraction.network
    period = ctx.clock_period
    for stage_idx, stage in enumerate(network.stages):
        for sink in stage.sinks:
            delay = stage.elmore_to(sink.node_idx)
            if delay < -ABS_TOL:
                yield Diagnostic(
                    rule="delay-sanity", severity=Severity.ERROR,
                    message=f"negative stage Elmore delay {delay:.4f} ps "
                            f"to sink node {sink.node_idx}",
                    stage=stage_idx, node=sink.node_idx)
            elif period is not None and delay > period:
                yield Diagnostic(
                    rule="delay-sanity", severity=Severity.WARN,
                    message=f"stage Elmore delay {delay:.1f} ps to sink "
                            f"node {sink.node_idx} exceeds one clock "
                            f"period ({period:.1f} ps)",
                    stage=stage_idx, node=sink.node_idx,
                    hint="check units: kOhm x fF = ps only in the "
                         "library's coherent system")


def check_coupling_sanity(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """Per-wire parasitics must be internally consistent.

    All capacitance components non-negative; the per-aggressor coupling
    entries must sum to ``cc_signal``; quiet-aggressor loading means
    ``c_rest`` includes ``cc_signal``; aggressor activities are
    probabilities; shielded wires carry no aggressor coupling at all.
    """
    tracks = ctx.routing.tracks
    for wire_id in sorted(ctx.extraction.wires):
        para = ctx.extraction.wires[wire_id]
        wire: RoutedWire = tracks.wire(wire_id)
        for name, value in (("c_area", para.c_area), ("c_rest", para.c_rest),
                            ("cc_signal", para.cc_signal),
                            ("cc_clock", para.cc_clock)):
            if value < 0.0:
                yield Diagnostic(
                    rule="coupling-sanity", severity=Severity.ERROR,
                    message=f"negative {name} = {value:.6f} fF",
                    wire_id=wire_id)
        total_cc = 0.0
        for entry in para.couplings:
            total_cc += entry.cc
            if entry.cc < 0.0:
                yield Diagnostic(
                    rule="coupling-sanity", severity=Severity.ERROR,
                    message=f"negative coupling entry {entry.cc:.6f} fF",
                    wire_id=wire_id)
            if not 0.0 <= entry.activity <= 1.0:
                yield Diagnostic(
                    rule="coupling-sanity", severity=Severity.ERROR,
                    message=f"aggressor activity {entry.activity} outside "
                            f"[0, 1]", wire_id=wire_id)
        if not _close(total_cc, para.cc_signal):
            yield Diagnostic(
                rule="coupling-sanity", severity=Severity.ERROR,
                message=f"coupling entries sum to {total_cc:.6f} fF but "
                        f"cc_signal is {para.cc_signal:.6f} fF",
                wire_id=wire_id,
                hint="the per-aggressor list and the total were updated "
                     "out of step")
        if para.c_rest < para.cc_signal - ABS_TOL \
                and not _close(para.c_rest, para.cc_signal):
            yield Diagnostic(
                rule="coupling-sanity", severity=Severity.ERROR,
                message=f"c_rest {para.c_rest:.6f} fF below cc_signal "
                        f"{para.cc_signal:.6f} fF (quiet aggressors must "
                        f"load the wire)", wire_id=wire_id)
        if wire.shielded and (para.cc_signal > 0.0 or para.couplings):
            yield Diagnostic(
                rule="coupling-sanity", severity=Severity.ERROR,
                message="shielded wire carries aggressor coupling",
                wire_id=wire_id,
                hint="stale extraction: the shield assignment was not "
                     "propagated")


#: The ``"drc"`` flow checks, one per rule.
DRC_CHECKS: tuple[Check[VerifyContext], ...] = (
    Check("track-overlap", "drc", check_track_overlap),
    Check("blockage-overlap", "drc", check_blockage_overlap),
    Check("shield-continuity", "drc", check_shield_continuity),
    Check("ndr-spacing", "drc", check_ndr_spacing),
    Check("rc-topology", "drc", check_rc_topology),
    Check("rc-values", "drc", check_rc_values),
    Check("rc-wire-sites", "drc", check_rc_wire_sites),
    Check("em-width", "drc", check_em_width),
    Check("delay-sanity", "drc", check_delay_sanity),
    Check("coupling-sanity", "drc", check_coupling_sanity),
)
