"""Whole-design batched analysis kernel, the analysis engine's only kernel.

Per-stage kernels dispatched from a Python work-stack spend their time
in per-stage Python overhead, not array math, at 16k+ sinks.  This
module compiles the *entire* clock network into one concatenated
parent-pointer forest plus flat CSR-style incidence entries, so static
timing, crosstalk, EM and Monte Carlo each run as a handful of
vectorized sweeps over the full design:

* all stage RC trees live in one global node arena (``parent`` is -1
  at each stage root); downstream capacitance is one bottom-up
  level sweep, per-sink Elmore one top-down prefix sweep
  (:mod:`repro.engine.treeops`);
* the stage graph itself is scheduled as breadth-first levels, so
  entry times propagate stage-to-stage with one gather/scatter per
  tree depth instead of one Python frame per stage;
* Monte Carlo broadcasts the frozen per-wire variation rows
  (:class:`~repro.engine.incremental.FrozenVariation`) into global
  column order and reuses the same sweeps with a trailing sample axis.

The from-scratch analyzers (``analyze_clock_timing``,
``analyze_crosstalk``, ``analyze_em``, ``run_monte_carlo``) are the
reference: the reference-equivalence suite holds every analysis to
them at 1e-9, and the treeops primitives pin the float-addition order
(see the treeops module docstring), so results are reproducible to the
bit.

Results come back in the reference analyzers' DFS emission order — the
compile step precomputes the work-stack visit order so sink lists,
arrival matrices and per-wire EM records line up row for row.
"""

from __future__ import annotations

from typing import Annotated, Optional

import numpy as np

from repro.engine.treeops import (accumulate_downstream, accumulate_prefix,
                                  build_levels, scatter_add)
from repro.extract.capmodel import WireParasitics
from repro.extract.rcnetwork import ClockRcNetwork, Stage
from repro.reliability.em import DEFAULT_EM_FACTOR, EmReport, WireCurrent
from repro.route.router import RoutingResult
from repro.tech.technology import Technology
from repro.timing.arrival import ClockTiming, SinkTiming
from repro.timing.crosstalk import CrosstalkReport, SinkDelta
from repro.timing.montecarlo import MonteCarloResult
from repro.timing.slew import propagate_slew_array
from repro.units import Dim

#: Monte-Carlo sample-block width: 32 columns keeps the (nodes, block)
#: working set inside the last-level cache up to ~64k-sink designs.
_MC_BLOCK = 32


class _StageSlice:
    """Per-stage view into the global arenas (oracle entry point).

    Float arrays are numpy *views* — mutating them corrupts the live
    kernel, which is what the verify-oracle fault-injection tests rely
    on.  Index arrays (``parent``, ``ent_node``, ``ent_col``) are
    re-based local copies.
    """

    __slots__ = ("n", "m", "wire_ids", "parent", "ent_node", "ent_col",
                 "r", "cap_fixed", "area_half", "rest_half", "cc_half",
                 "act_half", "width", "thickness", "jmax")

    def __init__(self, **attrs) -> None:
        for name, value in attrs.items():
            setattr(self, name, value)


class BatchedNetworkKernel:
    """One clock network compiled to whole-design flat arrays."""

    def __init__(self, network: ClockRcNetwork, routing: RoutingResult,
                 parasitics: dict[int, WireParasitics]) -> None:
        self.network = network
        self.routing = routing
        self._parasitics = parasitics
        self._stale = False
        self._compile()

    # -- compilation -------------------------------------------------------

    def _compile(self) -> None:
        network = self.network
        routing = self.routing
        parasitics = self._parasitics
        stages = network.stages
        n_stages = len(stages)
        self.n_stages = n_stages

        node_base = np.zeros(n_stages + 1, dtype=np.int64)
        for s, st in enumerate(stages):
            node_base[s + 1] = node_base[s] + len(st.nodes)
        n = int(node_base[-1])
        self.node_base = node_base
        self.n = n
        self.root_node = node_base[:-1].copy()

        parent = np.full(n, -1, dtype=np.int64)
        r = np.zeros(n)
        cap_fixed = np.zeros(n)

        col_of: dict[int, int] = {}
        wire_ids: list[int] = []
        wire_far: list[int] = []
        col_base = np.zeros(n_stages + 1, dtype=np.int64)
        ent_node: list[int] = []
        ent_col: list[int] = []
        ent_base = np.zeros(n_stages + 1, dtype=np.int64)

        d_int = np.zeros(n_stages)
        r_drv = np.zeros(n_stages)
        s_int = np.zeros(n_stages)
        kr = np.zeros(n_stages)

        for s, st in enumerate(stages):
            base = int(node_base[s])
            for nd in st.nodes:
                g = base + nd.idx
                if nd.parent is not None:
                    parent[g] = base + nd.parent
                r[g] = nd.r
                cap_fixed[g] = nd.cap_fixed
                if nd.wire_id is not None:
                    col_of[nd.wire_id] = len(wire_far)
                    wire_far.append(g)
                    wire_ids.append(nd.wire_id)
            col_base[s + 1] = len(wire_far)
            for nd in st.nodes:
                for wid, _a, _b in nd.cap_wire:
                    ent_node.append(base + nd.idx)
                    ent_col.append(col_of[wid])
            ent_base[s + 1] = len(ent_node)
            drv = st.driver
            d_int[s] = drv.d_intrinsic
            r_drv[s] = drv.r_drive
            s_int[s] = drv.s_intrinsic
            kr[s] = drv.k_slew * drv.r_drive

        self.parent = parent
        self.levels = build_levels(parent)
        self.r = r
        self.cap_fixed = cap_fixed
        self.col_of = col_of
        self.wire_ids = wire_ids
        self.m = len(wire_far)
        self.wire_far = np.array(wire_far, dtype=np.int64)
        self.col_base = col_base
        self.ent_node = np.array(ent_node, dtype=np.int64)
        self.ent_col = np.array(ent_col, dtype=np.int64)
        self.ent_base = ent_base
        self.d_int, self.r_drv, self.s_int, self.kr = d_int, r_drv, s_int, kr

        m = self.m
        self.area_half = np.zeros(m)
        self.rest_half = np.zeros(m)
        self.cc_half = np.zeros(m)
        self.act_half = np.zeros(m)
        self.width = np.zeros(m)
        self.thickness = np.zeros(m)
        self.jmax = np.ones(m)
        for wid, col in col_of.items():
            self._load_wire(col, parasitics[wid], routing.tracks.wire(wid))

        # Flat sink arena: per-stage sink order, stage-major.
        sink_node: list[int] = []
        sink_stage: list[int] = []
        child_stage: list[int] = []
        pins: list = []
        sinks_of_stage: list[list[int]] = []
        for s, st in enumerate(stages):
            flat: list[int] = []
            base = int(node_base[s])
            for sk in st.sinks:
                fi = len(sink_node)
                flat.append(fi)
                sink_node.append(base + sk.node_idx)
                sink_stage.append(s)
                pins.append(sk.sink_pin)
                if sk.sink_pin is None:
                    child_stage.append(
                        network.stage_of_tree_node[sk.next_stage_tree_id])
                else:
                    child_stage.append(-1)
            sinks_of_stage.append(flat)
        self.sink_node = np.array(sink_node, dtype=np.int64)
        self.sink_stage = np.array(sink_stage, dtype=np.int64)
        self.child_stage = np.array(child_stage, dtype=np.int64)
        self.sink_pins = pins

        # Stage-graph schedule: breadth-first levels for entry-time
        # propagation (each child stage has exactly one entry sink, so
        # the per-level scatter is collision-free).
        sched: list[tuple[np.ndarray, np.ndarray]] = []
        level = [network.root_stage] if n_stages else []
        while level:
            lsinks = [fi for s in level for fi in sinks_of_stage[s]]
            lconn = [fi for fi in lsinks if child_stage[fi] >= 0]
            sched.append((np.array(lsinks, dtype=np.int64),
                          np.array(lconn, dtype=np.int64)))
            level = [child_stage[fi] for fi in lconn]
        self._sched = sched

        # Flop emission order: the reference analyzers' DFS work-stack
        # order (stack is LIFO, so the last-pushed child stage runs
        # first).
        emit: list[int] = []
        work = [network.root_stage] if n_stages else []
        while work:
            s = work.pop()
            for fi in sinks_of_stage[s]:
                if child_stage[fi] < 0:
                    emit.append(fi)
                else:
                    work.append(child_stage[fi])
        self.emit_order = np.array(emit, dtype=np.int64)
        self.flop_pins = [pins[fi] for fi in emit]
        self.flop_names = [p.full_name for p in self.flop_pins]

        self._down: Optional[np.ndarray] = None
        self._xtalk = None  # (alignment, worst, expected) per flat sink
        self._frozen_ref = None
        self._frozen_perm: Optional[np.ndarray] = None

    def _load_wire(self, col: int, para: WireParasitics, wire) -> None:
        self.area_half[col] = para.c_area / 2.0
        self.rest_half[col] = para.c_rest / 2.0
        self.cc_half[col] = para.cc_signal / 2.0
        self.act_half[col] = sum(
            e.cc * e.activity for e in para.couplings) / 2.0
        self.width[col] = wire.width
        self.thickness[col] = wire.layer.thickness
        self.jmax[col] = wire.layer.em_jmax

    def _ensure(self) -> None:
        if self._stale:
            self._compile()
            self._stale = False

    def _invalidate(self) -> None:
        self._down = None
        self._xtalk = None

    def invalidate_caches(self) -> None:
        """Drop every derived-array cache (benchmark / debugging hook)."""
        self._invalidate()

    # -- incremental updates -----------------------------------------------

    @property
    def num_stages(self) -> int:
        return len(self.network.stages)

    def stage_view(self, stage_idx: int) -> _StageSlice:
        """Per-stage array view (oracle entry point)."""
        self._ensure()
        b0 = int(self.node_base[stage_idx])
        b1 = int(self.node_base[stage_idx + 1])
        c0 = int(self.col_base[stage_idx])
        c1 = int(self.col_base[stage_idx + 1])
        e0 = int(self.ent_base[stage_idx])
        e1 = int(self.ent_base[stage_idx + 1])
        parent = self.parent[b0:b1].copy()
        parent[parent >= 0] -= b0
        return _StageSlice(
            n=b1 - b0, m=c1 - c0, wire_ids=self.wire_ids[c0:c1],
            parent=parent,
            ent_node=self.ent_node[e0:e1] - b0,
            ent_col=self.ent_col[e0:e1] - c0,
            r=self.r[b0:b1], cap_fixed=self.cap_fixed[b0:b1],
            area_half=self.area_half[c0:c1],
            rest_half=self.rest_half[c0:c1],
            cc_half=self.cc_half[c0:c1], act_half=self.act_half[c0:c1],
            width=self.width[c0:c1], thickness=self.thickness[c0:c1],
            jmax=self.jmax[c0:c1])

    def patch_wire(self, wire_id: int, para: WireParasitics) -> None:
        """Apply one wire's new parasitics/geometry in place."""
        if self._stale:
            # A recompile is already pending; it re-reads the live
            # extraction, so patching the doomed arena is wasted work.
            return
        col = self.col_of[wire_id]
        self._load_wire(col, para, self.routing.tracks.wire(wire_id))
        self.r[self.wire_far[col]] = para.r
        self._invalidate()

    def retrim_stage(self, stage_idx: int, stage: Stage) -> None:
        """Refresh one stage's pad/snake scalars after a retrim."""
        if self._stale:
            # The pending recompile reads the retrimmed network.
            return
        base = int(self.node_base[stage_idx])
        nodes = stage.nodes
        self.cap_fixed[base] = nodes[0].cap_fixed
        if len(nodes) > 1 and nodes[1].wire_id is None:
            self.cap_fixed[base + 1] = nodes[1].cap_fixed
            self.r[base + 1] = nodes[1].r
        self._invalidate()

    def recompile_stage(self, parasitics: dict[int, WireParasitics]) -> None:
        """Mark the arena stale after a topology edit (lazy recompile).

        Topology edits shift every downstream global index, so the
        whole arena is rebuilt — lazily, once, however many stages the
        caller rebuilds in a batch.  One compile is a single pass over
        the network (~node count), far below one analysis sweep.
        """
        self._parasitics = parasitics
        self._stale = True
        self._invalidate()

    # -- shared sweeps -----------------------------------------------------

    def _down_nominal(self) -> np.ndarray:
        if self._down is None:
            down = self.cap_fixed.copy()
            half_sum = self.area_half + self.rest_half
            scatter_add(down, self.ent_node, half_sum[self.ent_col])
            accumulate_downstream(down, self.parent, self.levels)
            self._down = down
        return self._down

    def _propagate(self, per_sink: np.ndarray,
                   stage_base: Optional[np.ndarray]) -> np.ndarray:
        """Accumulate per-sink values across the stage graph.

        ``t[sink] = entry[stage] (+ stage_base[stage]) + per_sink[sink]``
        with each connector sink's ``t`` becoming its child stage's
        entry — the association of the reference analyzers' work-stack
        walk, level-batched.  Works for 1-D values and for
        ``(sinks, samples)`` Monte-Carlo matrices alike.
        """
        entry = np.zeros((self.n_stages,) + per_sink.shape[1:])
        t = np.zeros_like(per_sink)
        for lsinks, lconn in self._sched:
            ss = self.sink_stage[lsinks]
            if stage_base is None:
                t[lsinks] = entry[ss] + per_sink[lsinks]
            else:
                t[lsinks] = (entry[ss] + stage_base[ss]) + per_sink[lsinks]
            if lconn.size:
                entry[self.child_stage[lconn]] = t[lconn]
        return t

    def _path_coupling(self, half: np.ndarray) -> np.ndarray:
        """Per-sink ``sum_k shared_r(s, k) * coupling_node(k)``."""
        cc_node = np.zeros(self.n)
        scatter_add(cc_node, self.ent_node, half[self.ent_col])
        accumulate_downstream(cc_node, self.parent, self.levels)
        acc = self.r * cc_node
        accumulate_prefix(acc, self.parent, self.levels)
        drive = self.r_drv * cc_node[self.root_node]
        return drive[self.sink_stage] + acc[self.sink_node]

    # -- analyses ----------------------------------------------------------

    def static_timing(self, tech: Technology) -> ClockTiming:
        """Elmore static timing; mirrors ``analyze_clock_timing``."""
        self._ensure()
        down = self._down_nominal()
        total = down[self.root_node]
        if total.size and float(total.min()) < 0.0:
            raise ValueError(
                f"load capacitance must be non-negative, "
                f"got {float(total.min())}")
        driver_delay = self.d_int + self.r_drv * total
        driver_slew = self.s_int + self.kr * total
        acc = self.r * down
        accumulate_prefix(acc, self.parent, self.levels)
        elm = acc[self.sink_node]
        t = self._propagate(elm, driver_delay)

        timing = ClockTiming(max_slew_limit=tech.max_slew)
        timing.stage_loads = total.tolist()
        timing.stage_delays = driver_delay.tolist()
        eo = self.emit_order
        slews = propagate_slew_array(
            driver_slew[self.sink_stage[eo]], elm[eo])
        timing.sinks = [
            SinkTiming(pin=pin, arrival=arrival, slew=slew)
            for pin, arrival, slew in zip(self.flop_pins, t[eo].tolist(),
                                          slews.tolist())]
        return timing

    def crosstalk(self, alignment: float = 0.5) -> CrosstalkReport:
        """Delta-delay analysis; mirrors ``analyze_crosstalk``."""
        if not 0.0 <= alignment <= 1.0:
            raise ValueError(
                f"alignment must be in [0, 1], got {alignment}")
        self._ensure()
        if self._xtalk is None or self._xtalk[0] != alignment:
            worst = self._path_coupling(self.cc_half)
            expected = self._path_coupling(self.act_half) * alignment
            self._xtalk = (alignment, worst, expected)
        w = self._propagate(self._xtalk[1], None)
        e = self._propagate(self._xtalk[2], None)
        report = CrosstalkReport(alignment=alignment)
        eo = self.emit_order
        report.sinks = [
            SinkDelta(pin=pin, worst=worst, expected=expected)
            for pin, worst, expected in zip(self.flop_pins, w[eo].tolist(),
                                            e[eo].tolist())]
        return report

    def em(self, vdd: Annotated[float, Dim.VOLTAGE],
           freq: Annotated[float, Dim.FREQUENCY],
           em_factor: float = DEFAULT_EM_FACTOR) -> EmReport:
        """Current-density check; mirrors ``analyze_em``."""
        if em_factor <= 0.0:
            raise ValueError("em_factor must be positive")
        self._ensure()
        down = self._down_nominal()
        i_eff = em_factor * down[self.wire_far] * vdd * freq
        density = i_eff / (self.width * self.thickness)
        util = density / self.jmax
        report = EmReport()
        report.wires = [
            WireCurrent(wire_id=wid, i_eff=i, density=d, jmax=j,
                        utilization=u)
            for wid, i, d, j, u in zip(self.wire_ids, i_eff.tolist(),
                                       density.tolist(), self.jmax.tolist(),
                                       util.tolist())]
        return report

    def monte_carlo(self, frozen) -> MonteCarloResult:
        """Process-variation sampling over frozen draws, whole-design.

        Samples are processed in blocks of :data:`_MC_BLOCK` columns so
        every sweep stays cache-resident instead of streaming the full
        ``(nodes, samples)`` matrices from main memory.  Columns are
        elementwise-independent throughout, so blocking cannot change a
        single bit of the result.
        """
        self._ensure()
        k = frozen.n_samples
        area_scale, r_scale = self._frozen_scales(frozen)
        buf = frozen.buf_matrix()

        arr = np.empty((len(self.emit_order), k))
        for lo in range(0, k, _MC_BLOCK):
            hi = min(lo + _MC_BLOCK, k)
            arr[:, lo:hi] = self._mc_block(area_scale[:, lo:hi],
                                           r_scale[:, lo:hi],
                                           buf[:, lo:hi])
        return MonteCarloResult(
            skew_samples=arr.max(axis=0) - arr.min(axis=0),
            latency_samples=arr.max(axis=0),
            arrivals=arr,
            sink_names=list(self.flop_names),
        )

    def _mc_block(self, area_scale: np.ndarray, r_scale: np.ndarray,
                  buf: np.ndarray) -> np.ndarray:
        """One sample-block of the Monte-Carlo sweep (emit-order rows)."""
        kb = area_scale.shape[1]
        caps = np.broadcast_to(self.cap_fixed[:, None],
                               (self.n, kb)).copy()
        if self.m:
            # Both entries of a column carry the same half-cap, so the
            # per-wire contribution is computed once and gathered.
            contrib = (self.area_half[:, None] * area_scale
                       + self.rest_half[:, None])
            np.add.at(caps, self.ent_node, contrib[self.ent_col])
        accumulate_downstream(caps, self.parent, self.levels)
        total = caps[self.root_node]
        driver_delay = (self.d_int[:, None]
                        + self.r_drv[:, None] * total) * buf

        r_eff = np.repeat(self.r[:, None], kb, axis=1)
        if self.m:
            r_eff[self.wire_far] *= r_scale
        rd = r_eff * caps
        accumulate_prefix(rd, self.parent, self.levels)
        t = self._propagate(rd[self.sink_node], driver_delay)
        return t[self.emit_order]

    def _frozen_scales(self, frozen) -> tuple[np.ndarray, np.ndarray]:
        """Frozen per-wire variation rows gathered into column order."""
        if self._frozen_ref is not frozen or self._frozen_perm is None:
            self._frozen_perm = np.array(
                [frozen.wire_row[wid] for wid in self.wire_ids],
                dtype=np.int64)
            self._frozen_ref = frozen
        perm = self._frozen_perm
        return frozen.area_matrix()[perm], frozen.r_matrix()[perm]
