"""Engine-coherence oracle: recompute incremental state and diff.

Every structure the incremental engine maintains in place — cached
capacitance totals, the patched RC network, the neighbor dependency
index, the compiled analysis kernel, the frozen Monte-Carlo factors, the
sensitivity cache — has a from-scratch definition.  Each oracle check
recomputes that definition and diffs it against the maintained value,
so a skipped dirty bit or a desynchronised cache surfaces as a *named*
diagnostic instead of a subtly wrong number three analyses later.

Recomputation uses the exact same arithmetic as the builders (same
functions, same ordering), so the comparisons hold to float identity up
to summation-order round-off; tolerances are ``rel_tol=1e-9``.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from repro.core.sensitivity import _what_if_parasitics
from repro.engine.batched import BatchedNetworkKernel
from repro.extract.capmodel import WireParasitics, extract_wire
from repro.tech.ndr import rule_by_name
from repro.timing.montecarlo import wire_variation_factors
from repro.verify.context import VerifyContext
from repro.verify.diagnostics import Diagnostic, Severity
from repro.verify.registry import Check

REL_TOL = 1e-9
ABS_TOL = 1e-12


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _para_diffs(stored: WireParasitics,
                fresh: WireParasitics) -> Iterator[str]:
    """Named scalar fields on which two parasitics records disagree."""
    for name in ("r", "c_area", "c_rest", "cc_signal", "cc_clock"):
        a, b = getattr(stored, name), getattr(fresh, name)
        if not _close(a, b):
            yield f"{name} {a:.9g} vs {b:.9g}"
    if len(stored.couplings) != len(fresh.couplings):
        yield (f"coupling count {len(stored.couplings)} vs "
               f"{len(fresh.couplings)}")


def check_cap_totals(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """Cached switched/coupling cap totals equal a from-scratch sum.

    ``Extraction.set_wire`` must null both totals on every store; a
    surviving stale total silently skews the power analysis.  Only
    non-``None`` cached values are diffed — ``None`` means "stale, will
    recompute", which is always coherent.
    """
    wire_total, coupling_total = ctx.extraction.cached_cap_totals()
    clock_wires = ctx.routing.clock_wires
    if wire_total is not None:
        fresh = sum(ctx.extraction.wires[w.wire_id].c_switched
                    for w in clock_wires)
        if not _close(wire_total, fresh):
            yield Diagnostic(
                rule="cap-totals", severity=Severity.ERROR,
                message=f"cached clock wire cap {wire_total:.9g} fF, "
                        f"from-scratch sum {fresh:.9g} fF",
                hint="a set_wire path skipped the cache invalidation")
    if coupling_total is not None:
        fresh = sum(ctx.extraction.wires[w.wire_id].cc_signal
                    for w in clock_wires)
        if not _close(coupling_total, fresh):
            yield Diagnostic(
                rule="cap-totals", severity=Severity.ERROR,
                message=f"cached coupling cap {coupling_total:.9g} fF, "
                        f"from-scratch sum {fresh:.9g} fF",
                hint="a set_wire path skipped the cache invalidation")


def check_network_rc_sync(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """The patched RC network mirrors the parasitics store exactly.

    Each wire's far node must carry ``para.r`` and both of its RC nodes
    must carry the ``(c_area/2, c_rest/2)`` halves of the *current*
    parasitics.  A mismatch means ``patch_wire`` was skipped (or patched
    with stale values) after a re-extraction.
    """
    network = ctx.extraction.network
    wires = ctx.extraction.wires
    for stage_idx, stage in enumerate(network.stages):
        for node in stage.nodes:
            sites = [(wid, a, b) for wid, a, b in node.cap_wire]
            for wid, c_area_half, c_rest_half in sites:
                para = wires.get(wid)
                if para is None:
                    continue  # rc-wire-sites owns the missing-entry case
                if not _close(c_area_half, para.c_area / 2.0) \
                        or not _close(c_rest_half, para.c_rest / 2.0):
                    yield Diagnostic(
                        rule="network-rc-sync", severity=Severity.ERROR,
                        message=f"node carries wire halves "
                                f"({c_area_half:.9g}, {c_rest_half:.9g}) "
                                f"fF; parasitics say "
                                f"({para.c_area / 2.0:.9g}, "
                                f"{para.c_rest / 2.0:.9g}) fF",
                        stage=stage_idx, node=node.idx, wire_id=wid,
                        hint="patch_wire was not called after "
                             "re-extraction")
            if node.wire_id is not None:
                para = wires.get(node.wire_id)
                if para is not None and not _close(node.r, para.r):
                    yield Diagnostic(
                        rule="network-rc-sync", severity=Severity.ERROR,
                        message=f"far node resistance {node.r:.9g} kOhm; "
                                f"parasitics say {para.r:.9g} kOhm",
                        stage=stage_idx, node=node.idx,
                        wire_id=node.wire_id,
                        hint="patch_wire was not called after "
                             "re-extraction")


def check_extraction_fresh(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """Stored parasitics equal a fresh extraction of today's geometry.

    Single-wire extraction is deterministic in the wire's (rule,
    shield) state and its live track neighbors, so re-running it must
    reproduce the store bit-for-bit.  A diff means a rule or shield was
    assigned without notifying re-extraction — the classic skipped
    dirty bit.
    """
    tracks = ctx.routing.tracks
    for wire in ctx.routing.clock_wires:
        stored = ctx.extraction.wires.get(wire.wire_id)
        if stored is None:
            continue  # rc-wire-sites owns the missing-entry case
        fresh = extract_wire(wire, tracks.neighbors_of(wire))
        diffs = list(_para_diffs(stored, fresh))
        if diffs:
            yield Diagnostic(
                rule="extraction-fresh", severity=Severity.ERROR,
                message="stored parasitics are stale: " + "; ".join(diffs),
                wire_id=wire.wire_id,
                hint="a rule/shield assignment bypassed re-extraction "
                     "(skipped dirty bit)")


def check_neighbor_index_sync(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """The neighbor dependency index matches live neighbor queries.

    Forward sets must equal ``neighbors_of`` recomputed now, and the
    reverse map must be the exact inverse of the forward map.  A stale
    entry makes ``dependents_of`` miss (or over-dirty) wires on the
    next incremental re-extraction.
    """
    fwd, rev = ctx.extraction.neighbor_index()
    tracks = ctx.routing.tracks
    for wire in ctx.routing.clock_wires:
        if wire.wire_id not in fwd:
            continue  # never extracted through the index; nothing to sync
        live = frozenset(nb.neighbor_id
                         for nb in tracks.neighbors_of(wire))
        recorded = fwd[wire.wire_id]
        if recorded != live:
            missing = sorted(live - recorded)
            extra = sorted(recorded - live)
            yield Diagnostic(
                rule="neighbor-index-sync", severity=Severity.ERROR,
                message=f"recorded neighbor set is stale "
                        f"(missing {missing}, extra {extra})",
                wire_id=wire.wire_id,
                hint="record_neighbors was skipped after the wire's "
                     "reach changed")
    inverse: dict[int, set[int]] = {}
    for victim, neighbor_ids in fwd.items():
        for nid in neighbor_ids:
            inverse.setdefault(nid, set()).add(victim)
    for nid in sorted(set(rev) | set(inverse)):
        want = frozenset(inverse.get(nid, set()))
        have = rev.get(nid, frozenset())
        if want != have:
            yield Diagnostic(
                rule="neighbor-index-sync", severity=Severity.ERROR,
                message=f"reverse index for wire {nid} is "
                        f"{sorted(have)}; inverse of the forward map is "
                        f"{sorted(want)}", wire_id=nid,
                hint="forward and reverse maps were updated out of step")


def check_kernel_sync(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """The compiled kernel equals a fresh compile of today's network.

    Compiles a fresh :class:`BatchedNetworkKernel` from the current
    network and parasitics and diffs every stage's patched-in-place
    arrays (:meth:`~BatchedNetworkKernel.stage_view`).  Requires an
    engine in the context; silently skipped otherwise.
    """
    engine = ctx.engine
    if engine is None:
        return
    if engine.extraction is not ctx.extraction:
        yield Diagnostic(
            rule="kernel-sync", severity=Severity.ERROR,
            message="engine wraps a different Extraction object than the "
                    "one under verification",
            hint="the flow rebuilt extraction without rebuilding the "
                 "engine")
        return
    network = ctx.extraction.network
    if engine.kernel.num_stages != len(network.stages):
        yield Diagnostic(
            rule="kernel-sync", severity=Severity.ERROR,
            message=f"kernel has {engine.kernel.num_stages} stages; the "
                    f"network has {len(network.stages)}")
        return
    fresh = BatchedNetworkKernel(network, ctx.routing, ctx.extraction.wires)
    for stage_idx in range(len(network.stages)):
        have = engine.kernel.stage_view(stage_idx)
        want = fresh.stage_view(stage_idx)
        if have.wire_ids != want.wire_ids or have.n != want.n:
            yield Diagnostic(
                rule="kernel-sync", severity=Severity.ERROR,
                message=f"kernel stage shape ({have.n} nodes, wires "
                        f"{have.wire_ids}) differs from a fresh compile "
                        f"({want.n} nodes, wires {want.wire_ids})",
                stage=stage_idx,
                hint="a stage rebuild skipped recompile_stage")
            continue
        for name in ("r", "cap_fixed", "area_half", "rest_half",
                     "cc_half", "act_half", "width", "thickness",
                     "jmax"):
            a = getattr(have, name)
            b = getattr(want, name)
            if not np.allclose(a, b, rtol=REL_TOL, atol=ABS_TOL):
                worst = int(np.argmax(np.abs(a - b)))
                yield Diagnostic(
                    rule="kernel-sync", severity=Severity.ERROR,
                    message=f"kernel array {name!r} is stale (worst at "
                            f"index {worst}: {a[worst]:.9g} vs "
                            f"{b[worst]:.9g})",
                    stage=stage_idx,
                    hint="patch_wire/retrim missed this stage")
        for name in ("parent", "ent_node", "ent_col"):
            if not np.array_equal(getattr(have, name),
                                  getattr(want, name)):
                yield Diagnostic(
                    rule="kernel-sync", severity=Severity.ERROR,
                    message=f"kernel structure {name!r} differs from a "
                            f"fresh compile", stage=stage_idx,
                    hint="topology changed without recompile_stage")


def check_frozen_mc_sync(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """Frozen Monte-Carlo factors equal a recompute from frozen draws.

    The draws themselves are invariant; the per-wire width/resistance
    factors must track the wires' *current* widths.  A stale factor
    means ``refresh_wire`` was skipped after a rule change, silently
    degrading the variation analysis.  Requires an engine; skipped
    otherwise.
    """
    engine = ctx.engine
    if engine is None:
        return
    frozen = engine.frozen
    if len(frozen.buf_scale) != len(ctx.extraction.network.stages):
        yield Diagnostic(
            rule="frozen-mc-sync", severity=Severity.ERROR,
            message=f"frozen buffer scales cover {len(frozen.buf_scale)} "
                    f"stages; the network has "
                    f"{len(ctx.extraction.network.stages)}",
            hint="FrozenVariation predates a stage-count change; "
                 "rebuild the engine")
        return
    for wire in ctx.routing.clock_wires:
        wid = wire.wire_id
        if wid not in frozen.cells or wid not in frozen.z_rand:
            yield Diagnostic(
                rule="frozen-mc-sync", severity=Severity.ERROR,
                message="wire has no frozen variation draws",
                wire_id=wid,
                hint="FrozenVariation predates this wire; rebuild the "
                     "engine")
            continue
        cell = frozen.cells[wid]
        area, r = wire_variation_factors(
            frozen.var, wire, frozen.z_width[cell], frozen.z_rand[wid],
            frozen.z_thick[cell])
        for name, have, want in (("area_scale", frozen.area_scale[wid],
                                  area),
                                 ("r_scale", frozen.r_scale[wid], r)):
            if not np.allclose(have, want, rtol=REL_TOL, atol=ABS_TOL):
                worst = int(np.argmax(np.abs(have - want)))
                yield Diagnostic(
                    rule="frozen-mc-sync", severity=Severity.ERROR,
                    message=f"frozen {name} is stale (worst at sample "
                            f"{worst}: {have[worst]:.9g} vs "
                            f"{want[worst]:.9g})",
                    wire_id=wid,
                    hint="refresh_wire was skipped after the wire's "
                         "width moved")


def check_sens_cache_sync(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """Live sensitivity-cache entries equal a fresh what-if extraction.

    Cache keys embed the neighbor-occupancy fingerprint, so entries
    whose fingerprint no longer matches the current occupancy are
    legitimately dead and skipped.  A *live* entry (fingerprint still
    current) must reproduce under a fresh what-if extraction; a diff
    means the memo was poisoned or the fingerprint under-captures a
    dependency.  Requires a sensitivity cache; skipped otherwise.
    """
    cache = ctx.sens_cache
    if cache is None:
        return
    for wid, rule_name, shielded, occ, stored in cache.entries():
        if occ != cache.occupancy(wid):
            continue  # self-invalidated by a neighbor's rule change
        fresh = _what_if_parasitics(ctx.routing, wid,
                                    rule_by_name(rule_name), shielded)
        diffs = list(_para_diffs(stored, fresh))
        if diffs:
            yield Diagnostic(
                rule="sens-cache-sync", severity=Severity.ERROR,
                message=f"cached what-if for rule {rule_name} "
                        f"(shielded={shielded}) is stale: "
                        + "; ".join(diffs),
                wire_id=wid,
                hint="the occupancy fingerprint under-captures a "
                     "dependency of single-wire extraction")


#: The ``"oracle"`` flow checks, one per rule.
ORACLE_CHECKS: tuple[Check[VerifyContext], ...] = (
    Check("cap-totals", "oracle", check_cap_totals),
    Check("network-rc-sync", "oracle", check_network_rc_sync),
    Check("extraction-fresh", "oracle", check_extraction_fresh),
    Check("neighbor-index-sync", "oracle", check_neighbor_index_sync),
    Check("kernel-sync", "oracle", check_kernel_sync),
    Check("frozen-mc-sync", "oracle", check_frozen_mc_sync),
    Check("sens-cache-sync", "oracle", check_sens_cache_sync),
)
