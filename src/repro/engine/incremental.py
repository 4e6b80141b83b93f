"""Dirty-tracked analysis over a patched extraction.

:class:`AnalysisEngine` wraps one :class:`Extraction` with a compiled
:class:`~repro.engine.batched.BatchedNetworkKernel` and keeps every
analysis result cached until its inputs move:

* **rule changes** (``apply_rule_changes``) re-extract the touched
  wires plus their coupling dependents, patch the RC network and the
  kernel in place, and invalidate everything — but re-running is now
  a handful of stage-local array updates, not a network rebuild;
* **trims** (``rebuild_stages``) rebuild only the touched stages.  EM
  survives a trim untouched: pad/snake capacitance hangs at or above
  every wire node, so no wire's downstream charge changes;
* **Monte Carlo** keeps its seeded draws frozen
  (:class:`FrozenVariation`).  A rule change only moves the touched
  wires' width-normalised variation factors, which are recomputed from
  the frozen draws — so the incremental MC equals a fresh seeded run.

Anything the dirty rules cannot express (buffer re-sizing, tree
topology edits) needs a fresh engine — construction is one full
compile, the same price as the legacy full rebuild.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro import obs
from repro.core.evaluation import AnalysisBundle
from repro.core.targets import RobustnessTargets
from repro.cts.tree import ClockTree
from repro.engine.batched import BatchedNetworkKernel
from repro.extract.extractor import Extraction, incremental_re_extract
from repro.power.clockpower import PowerReport, analyze_power
from repro.reliability.em import DEFAULT_EM_FACTOR, EmReport
from repro.route.router import RoutingResult
from repro.tech.technology import Technology
from repro.timing.arrival import ClockTiming
from repro.timing.crosstalk import CrosstalkReport
from repro.timing.montecarlo import (MonteCarloResult, _correlation_cells,
                                     wire_variation_factors)


class FrozenVariation:
    """Monte-Carlo draws frozen once per optimizer run.

    Replicates ``run_monte_carlo``'s rng consumption order exactly
    (cell draws, per-wire draws in ``clock_wires`` order, die-to-die,
    per-stage), so factors are bit-identical to a fresh seeded run.
    The draws only depend on invariants of a rule-assignment run —
    wire midpoints (correlation cells), the wire list, and the stage
    count — which neither rule changes nor trims move.
    """

    def __init__(self, network, routing: RoutingResult, tech: Technology,
                 n_samples: int = 200, seed: int = 1) -> None:
        if n_samples < 2:
            raise ValueError("need at least 2 samples")
        self.var = tech.variation
        self.n_samples = n_samples
        rng = np.random.default_rng(seed)

        self.cells = _correlation_cells(routing, self.var.corr_grid)
        n_cells = max(self.cells.values(), default=0) + 1
        self.z_width = rng.standard_normal((n_cells, n_samples))
        self.z_thick = rng.standard_normal((n_cells, n_samples))

        # One (wires, samples) draw equals the legacy per-wire sequence
        # bit for bit (row-major fill), and one matrix expression equals
        # the per-wire `wire_variation_factors` rows (the scalar factors
        # broadcast elementwise in the same association).
        wires = list(routing.clock_wires)
        #: wire id -> row in the factor matrices (clock_wires order)
        self.wire_row = {w.wire_id: i for i, w in enumerate(wires)}
        self._z_rand_mat = rng.standard_normal((len(wires), n_samples))
        if wires:
            cells_idx = np.array([self.cells[w.wire_id] for w in wires],
                                 dtype=np.int64)
            minw = np.array([w.layer.min_width for w in wires])
            width = np.array([w.width for w in wires])
            rel_w = ((self.z_width[cells_idx] * self.var.width_sigma
                      + self._z_rand_mat * self.var.width_rand_sigma)
                     * minw[:, None] / width[:, None])
            rel_t = self.z_thick[cells_idx] * self.var.thickness_sigma
            w_factor = np.clip(1.0 + rel_w, 0.3, None)
            t_factor = np.clip(1.0 + rel_t, 0.3, None)
            self._area_mat = w_factor
            self._r_mat = 1.0 / (w_factor * t_factor)
        else:
            self._area_mat = np.zeros((0, n_samples))
            self._r_mat = np.zeros((0, n_samples))

        d2d = rng.standard_normal(n_samples) * self.var.buffer_d2d_sigma
        n_stages = len(network.stages)
        rand = rng.standard_normal((n_stages, n_samples)) \
            * self.var.buffer_rand_sigma
        self._buf_mat = np.clip(1.0 + d2d[None, :] + rand, 0.3, None)
        self._bind_views()

    def _bind_views(self) -> None:
        """Per-wire/per-stage row views into the factor matrices.

        Row refreshes write through, so the views never go stale.
        """
        rows = self.wire_row.items()
        self.z_rand: dict[int, np.ndarray] = {
            wid: self._z_rand_mat[i] for wid, i in rows}
        self.area_scale: dict[int, np.ndarray] = {
            wid: self._area_mat[i] for wid, i in rows}
        self.r_scale: dict[int, np.ndarray] = {
            wid: self._r_mat[i] for wid, i in rows}
        self.buf_scale: list[np.ndarray] = list(self._buf_mat)

    def __getstate__(self) -> dict:
        # Pickle would write every row view as an independent copy,
        # detaching it from its matrix; ship the matrices only.
        state = self.__dict__.copy()
        for name in ("z_rand", "area_scale", "r_scale", "buf_scale"):
            del state[name]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._bind_views()

    def area_matrix(self) -> np.ndarray:
        """(wires, samples) area-cap scale factors, ``wire_row`` order."""
        return self._area_mat

    def r_matrix(self) -> np.ndarray:
        """(wires, samples) resistance scale factors, ``wire_row`` order."""
        return self._r_mat

    def buf_matrix(self) -> np.ndarray:
        """(stages, samples) buffer delay scale factors."""
        return self._buf_mat

    def refresh_wire(self, wire) -> None:
        """Recompute one wire's factors (its width moved) from frozen draws."""
        row = self.wire_row[wire.wire_id]
        cell = self.cells[wire.wire_id]
        area, r = wire_variation_factors(
            self.var, wire, self.z_width[cell],
            self._z_rand_mat[row], self.z_thick[cell])
        self._area_mat[row] = area
        self._r_mat[row] = r


class AnalysisEngine:
    """Incremental analysis of one extraction; see the module docstring."""

    def __init__(self, extraction: Extraction, tree: ClockTree,
                 tech: Technology, freq: float,
                 targets: RobustnessTargets) -> None:
        self.extraction = extraction
        self.tree = tree
        self.tech = tech
        self.freq = freq
        self.targets = targets
        with obs.span("engine.compile"):
            self.kernel = BatchedNetworkKernel(
                extraction.network, extraction.routing, extraction.wires)
        self.frozen = FrozenVariation(
            extraction.network, extraction.routing, tech,
            n_samples=targets.mc_samples, seed=targets.mc_seed)
        self._timing: Optional[ClockTiming] = None
        self._xtalk: Optional[CrosstalkReport] = None
        self._em: Optional[EmReport] = None
        self._power: Optional[PowerReport] = None
        self._mc: Optional[MonteCarloResult] = None

    # -- change notifications ----------------------------------------------

    def apply_rule_changes(self, wire_ids: Iterable[int]) -> set[int]:
        """Incrementally re-extract after rule/shield changes.

        Returns the dirty wire set (touched wires plus coupling
        dependents); every analysis is invalidated — caps and
        resistances moved, so nothing survives — but all recomputes
        are now stage-local.
        """
        dirty, stages = incremental_re_extract(self.extraction, wire_ids)
        obs.counter("engine.incremental_re_extracts").inc()
        obs.histogram("engine.dirty_wires").observe(float(len(dirty)))
        tracks = self.extraction.routing.tracks
        for wire_id in dirty:
            self.kernel.patch_wire(wire_id, self.extraction.wires[wire_id])
            self.frozen.refresh_wire(tracks.wire(wire_id))
        self._timing = self._xtalk = self._em = None
        self._power = self._mc = None
        return dirty

    def rebuild_stages(self, tree_node_ids: Iterable[int]) -> None:
        """Rebuild the stages of trimmed tree nodes (pad/snake edits).

        EM stays cached: trim capacitance hangs at or above every wire
        node of the stage, so wire downstream charge is unchanged.
        """
        network = self.extraction.network
        for tree_id in tree_node_ids:
            stage_idx = network.stage_of_tree_node[tree_id]
            if network.retrim_stage(stage_idx, self.tree):
                # Common case: pad/snake values moved but the snake node
                # neither appeared nor vanished — patch scalars in place.
                self.kernel.retrim_stage(stage_idx,
                                         network.stages[stage_idx])
                obs.counter("engine.stage_retrims").inc()
                continue
            network.rebuild_stage(stage_idx, self.tree,
                                  self.extraction.routing,
                                  self.extraction.wires)
            self.kernel.recompile_stage(self.extraction.wires)
            obs.counter("engine.stage_rebuilds").inc()
        self._timing = self._xtalk = None
        self._power = self._mc = None

    # -- analyses ----------------------------------------------------------

    def _mark_rss(self) -> None:
        """Publish the process peak-RSS after a stage-batch analysis."""
        obs.gauge("engine.peak_rss_bytes").set(float(obs.peak_rss_bytes()))

    def static_timing(self) -> ClockTiming:
        """Elmore static timing, cached until a change notification."""
        if self._timing is None:
            with obs.span("engine.static_timing"):
                self._timing = self.kernel.static_timing(self.tech)
            self._mark_rss()
        return self._timing

    def analyze(self) -> AnalysisBundle:
        """The full bundle, recomputing only invalidated analyses."""
        if self._xtalk is None:
            with obs.span("engine.crosstalk"):
                self._xtalk = self.kernel.crosstalk(
                    alignment=self.targets.alignment)
            self._mark_rss()
        if self._em is None:
            with obs.span("engine.em"):
                self._em = self.kernel.em(self.tech.vdd, self.freq,
                                          em_factor=DEFAULT_EM_FACTOR)
            self._mark_rss()
        if self._power is None:
            self._power = analyze_power(self.extraction, self.tech,
                                        self.freq)
        if self._mc is None:
            with obs.span("engine.monte_carlo"):
                self._mc = self.kernel.monte_carlo(self.frozen)
            self._mark_rss()
        return AnalysisBundle(timing=self.static_timing(),
                              crosstalk=self._xtalk, em=self._em,
                              power=self._power, mc=self._mc)
