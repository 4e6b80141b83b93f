"""Vectorised Monte-Carlo process-variation analysis of clock skew.

Variation sources (see :class:`repro.tech.variation.VariationModel`):

* **Wire width** — one Gaussian draw per spatial-correlation cell per
  sample, scaled by the layer's default width.  A wire's *relative*
  width noise is the absolute noise divided by its drawn width, so NDR
  (2x) wires see half the relative noise — the physical mechanism that
  makes NDR tighten the skew distribution.  Width noise moves R
  inversely and the area part of C proportionally.
* **Wire thickness** — per-cell draw, moves R inversely.
* **Buffer delay** — a die-to-die component (one draw per sample,
  common to all buffers) plus a random per-stage component.

Everything is evaluated as NumPy vectors over samples; the per-sample
work is the same stage walk the static timer does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.extract.capmodel import WireParasitics
from repro.extract.rcnetwork import ClockRcNetwork
from repro.route.router import RoutingResult
from repro.tech.technology import Technology


@dataclass
class MonteCarloResult:
    """Skew and latency distributions over process samples."""

    skew_samples: np.ndarray        # (n_samples,)
    latency_samples: np.ndarray     # (n_samples,)
    arrivals: np.ndarray            # (n_flops, n_samples)
    sink_names: list[str] = field(default_factory=list)

    @property
    def n_samples(self) -> int:
        return int(self.skew_samples.shape[0])

    @property
    def mean_skew(self) -> float:
        return float(np.mean(self.skew_samples))

    @property
    def std_skew(self) -> float:
        return float(np.std(self.skew_samples))

    @property
    def skew_3sigma(self) -> float:
        """The mu + 3 sigma point of the skew distribution, ps."""
        return self.mean_skew + 3.0 * self.std_skew

    @property
    def mean_latency(self) -> float:
        return float(np.mean(self.latency_samples))

    def arrival_sigma(self) -> np.ndarray:
        """Per-sink arrival standard deviation, ps."""
        return np.std(self.arrivals, axis=1)


def _correlation_cells(routing: RoutingResult, corr_grid: float) -> dict[int, int]:
    """Map each clock wire id to a dense spatial-correlation cell index."""
    cell_ids: dict[tuple[int, int], int] = {}
    assignment: dict[int, int] = {}
    for wire in routing.clock_wires:
        mid = wire.segment.midpoint
        key = (int(mid.x // corr_grid), int(mid.y // corr_grid))
        if key not in cell_ids:
            cell_ids[key] = len(cell_ids)
        assignment[wire.wire_id] = cell_ids[key]
    return assignment


def wire_variation_factors(var, wire, z_cell_width: np.ndarray,
                           z_rand: np.ndarray, z_cell_thick: np.ndarray,
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample (area_scale, r_scale) factors of one wire.

    The relative width noise is the absolute noise normalised to the
    wire's drawn width, so wide (NDR) wires see proportionally less of
    it; width moves the area cap proportionally and R inversely, and
    thickness moves R inversely.  Shared by the batch Monte Carlo and
    the incremental engine so both produce bit-identical factors.
    """
    rel_w = ((z_cell_width * var.width_sigma
              + z_rand * var.width_rand_sigma)
             * wire.layer.min_width / wire.width)
    rel_t = z_cell_thick * var.thickness_sigma
    w_factor = np.clip(1.0 + rel_w, 0.3, None)
    t_factor = np.clip(1.0 + rel_t, 0.3, None)
    return w_factor, 1.0 / (w_factor * t_factor)


def run_monte_carlo(network: ClockRcNetwork,
                    parasitics: dict[int, WireParasitics],
                    routing: RoutingResult,
                    tech: Technology,
                    n_samples: int = 200,
                    seed: int = 1) -> MonteCarloResult:
    """Sample the skew distribution of one extracted clock network."""
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    var = tech.variation
    rng = np.random.default_rng(seed)

    cells = _correlation_cells(routing, var.corr_grid)
    n_cells = max(cells.values(), default=0) + 1
    z_width = rng.standard_normal((n_cells, n_samples))
    z_thick = rng.standard_normal((n_cells, n_samples))

    # Per-wire multiplicative factors: systematic (per correlation cell)
    # plus random per-wire width noise, both normalised to the layer's
    # default width so wide wires see proportionally less relative noise.
    area_scale: dict[int, np.ndarray] = {}
    r_scale: dict[int, np.ndarray] = {}
    for wire in routing.clock_wires:
        cell = cells[wire.wire_id]
        z_rand = rng.standard_normal(n_samples)
        w_factor, inv_rc = wire_variation_factors(
            var, wire, z_width[cell], z_rand, z_thick[cell])
        area_scale[wire.wire_id] = w_factor
        r_scale[wire.wire_id] = inv_rc

    # Buffer delay factors: die-to-die plus per-stage random.
    d2d = rng.standard_normal(n_samples) * var.buffer_d2d_sigma
    buf_scale = []
    for _stage in network.stages:
        rand = rng.standard_normal(n_samples) * var.buffer_rand_sigma
        buf_scale.append(np.clip(1.0 + d2d + rand, 0.3, None))

    arrivals: list[np.ndarray] = []
    sink_names: list[str] = []
    work: list[tuple[int, np.ndarray]] = [
        (network.root_stage, np.zeros(n_samples))]
    while work:
        stage_idx, entry = work.pop()
        stage = network.stages[stage_idx]
        n_nodes = len(stage.nodes)
        caps = np.zeros((n_nodes, n_samples))
        for node in stage.nodes:
            row = caps[node.idx]
            row += node.cap_fixed
            for wire_id, c_area, c_rest in node.cap_wire:
                row += c_area * area_scale[wire_id] + c_rest
        down = caps.copy()
        for node in reversed(stage.nodes):  # topo order: parents first
            if node.parent is not None:
                down[node.parent] += down[node.idx]
        total = down[0]
        driver = stage.driver
        driver_delay = (driver.d_intrinsic + driver.r_drive * total) \
            * buf_scale[stage_idx]

        for sink in stage.sinks:
            elmore = np.zeros(n_samples)
            for idx in stage.path_to_root(sink.node_idx):
                node = stage.nodes[idx]
                if node.parent is None:
                    continue
                if node.wire_id is not None:
                    elmore += node.r * r_scale[node.wire_id] * down[idx]
                else:
                    # Trim elements (root snakes) are variation-free.
                    elmore += node.r * down[idx]
            t = entry + driver_delay + elmore
            if sink.is_flop:
                arrivals.append(t)
                sink_names.append(sink.sink_pin.full_name)
            else:
                child = network.stage_of_tree_node[sink.next_stage_tree_id]
                work.append((child, t))

    arr = np.vstack(arrivals)
    skew = arr.max(axis=0) - arr.min(axis=0)
    latency = arr.max(axis=0)
    return MonteCarloResult(
        skew_samples=skew,
        latency_samples=latency,
        arrivals=arr,
        sink_names=sink_names,
    )
