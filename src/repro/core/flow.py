"""The end-to-end smart-NDR flow.

``run_flow`` is the library's front door: given a placed design and a
policy, it drives the four-stage pipeline (:mod:`repro.core.stages`) —
``build`` (CTS + route + trim), ``policy`` (rule assignment),
``retrim``, ``analyze`` — and returns a fully analyzed
:class:`FlowResult`.

Every policy starts from the same pristine default-rule build, so
comparisons are apples-to-apples (the skew-trimming pads are re-derived
under each policy's own extraction).  With an
:class:`~repro.io.artifacts.ArtifactStore` passed as ``store``, the
deterministic build is computed once per (design, tech, stage params);
with a :class:`~repro.core.stages.BuildMemo` passed as ``memo``, each
policy receives its own fork of the build the memo keeps
(:meth:`PhysicalDesign.fork`) — same results as a fresh build, one
build instead of one per cell.  A flow on a fork shares its design,
technology and signal wires read-only with the other forks.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.core.evaluation import AnalysisBundle
from repro.core.optimizer import OptimizeResult
from repro.core.policies import Policy
from repro.core.stages import (BuildMemo, BuildParams, PolicyParams,
                               analyze_stage, build_stage, policy_stage,
                               retrim_stage)
from repro.core.targets import RobustnessTargets
from repro.cts.refine import RefineResult
from repro.cts.synthesize import CtsResult
from repro.cts.tree import ClockTree
from repro.extract.extractor import Extraction
from repro.netlist.design import Design
from repro.route.router import RoutingResult
from repro.tech.technology import Technology, default_technology


@dataclass
class PhysicalDesign:
    """A synthesized, routed, skew-trimmed clock implementation."""

    design: Design
    tech: Technology
    tree: ClockTree
    routing: RoutingResult
    cts: CtsResult
    refine: RefineResult

    @property
    def extraction(self) -> Extraction:
        return self.refine.extraction

    def fork(self) -> "PhysicalDesign":
        """A copy that a policy, retrim and analysis may write freely.

        The fork owns what those stages write: the clock wires, the
        tree nodes, the RC network and the extraction's parasitics and
        neighbor maps.  The design, the technology, the signal wires
        and the track occupancy are shared read-only.
        """
        tree = self.tree.fork()
        routing = self.routing.fork()
        return PhysicalDesign(
            design=self.design, tech=self.tech, tree=tree, routing=routing,
            cts=replace(self.cts, tree=tree),
            refine=replace(self.refine,
                           extraction=self.extraction.fork(routing)))


@dataclass
class FlowResult:
    """Everything one policy run produces on one design."""

    design_name: str
    policy: Policy
    targets: RobustnessTargets
    physical: PhysicalDesign
    analyses: AnalysisBundle
    rule_histogram: dict[str, int] = field(default_factory=dict)
    ndr_track_cost: float = 0.0
    optimize: Optional[OptimizeResult] = None
    runtime: float = 0.0

    @property
    def feasible(self) -> bool:
        return self.analyses.feasible(self.targets)

    @property
    def clock_power(self) -> float:
        """Total clock power, uW."""
        return self.analyses.power.p_total

    @property
    def switched_cap(self) -> float:
        """Total switched capacitance, fF."""
        return self.analyses.power.total_cap

    def summary(self) -> dict[str, float]:
        """Flat metric dict for tables."""
        a = self.analyses
        return {
            "power_uw": a.power.p_total,
            "wire_cap_ff": a.power.wire_cap,
            "total_cap_ff": a.power.total_cap,
            "skew_ps": a.timing.skew,
            "latency_ps": a.timing.latency,
            "worst_slew_ps": a.timing.worst_slew,
            "worst_delta_ps": a.crosstalk.worst_delta,
            "skew_3sigma_ps": a.mc.skew_3sigma,
            "em_violations": float(a.em.num_violations),
            "em_worst_util": a.em.worst_utilization,
            "ndr_track_um": self.ndr_track_cost,
            "feasible": 1.0 if self.feasible else 0.0,
        }


def build_physical_design(design: Design, tech: Optional[Technology] = None,
                          max_stage_cap: float = 0.0,
                          store=None) -> PhysicalDesign:
    """CTS + routing + skew trim, with all wires on the default rule.

    With ``store`` (an :class:`~repro.io.artifacts.ArtifactStore`), the
    build is content-addressed and a hit returns a fresh deserialisation.
    """
    tech = tech if tech is not None else default_technology()
    return build_stage(design, tech,
                       BuildParams(max_stage_cap=max_stage_cap), store=store)


def run_flow(design: Design, tech: Optional[Technology] = None,
             policy: Policy = Policy.SMART,
             targets: Optional[RobustnessTargets] = None,
             random_fraction: float = 0.3, random_seed: int = 0,
             lambda_track: float = 0.05,
             store=None, memo: Optional[BuildMemo] = None) -> FlowResult:
    """Run one policy end to end on ``design``.

    Parameters
    ----------
    policy:
        Which rule-assignment strategy to use.
    targets:
        Robustness budgets; defaults to the period-derived spec
        (:meth:`RobustnessTargets.for_period`).
    random_fraction / random_seed:
        Only used by ``Policy.RANDOM``.
    store:
        Optional :class:`~repro.io.artifacts.ArtifactStore`; the build
        stage is then shared across invocations (a hit is a fresh
        deserialisation, so results are bitwise identical to a fresh
        build).
    memo:
        Optional :class:`~repro.core.stages.BuildMemo`; a build it
        keeps is forked instead of loaded or rebuilt, and a computed
        build is kept in it (results are bitwise identical again).

    For the optimizing policies, an EM violation that survives with
    every violating wire already at the widest rule means no rule
    assignment can fix it — the charge per trunk is too high.  The flow
    then re-synthesizes with a halved stage-capacitance budget (more,
    smaller stages carry less charge per trunk) and retries, up to two
    times; this is the CTS/NDR interaction a real flow iterates on.
    """
    tech = tech if tech is not None else default_technology()
    if targets is None:
        targets = RobustnessTargets.for_period(design.clock_period,
                                               tech.max_slew)
    start = time.perf_counter()  # static: ok[D002] feeds FlowResult.runtime metadata only
    policy_params = PolicyParams(policy=policy,
                                 random_fraction=random_fraction,
                                 random_seed=random_seed,
                                 lambda_track=lambda_track)
    # Track the stage budget explicitly so retries actually shrink it
    # (insert_buffers uses 25% of the largest buffer's load by default).
    stage_budget = 0.25 * tech.buffers.largest.max_cap
    max_stage_cap = 0.0  # build_stage's default (== stage_budget)
    widest = max(tech.rules, key=lambda r: r.width_mult)

    for attempt in range(3):
        physical = build_stage(design, tech,
                               BuildParams(max_stage_cap=max_stage_cap),
                               store=store, memo=memo)
        routing = physical.routing

        optimize = policy_stage(physical, targets, policy_params)

        # Rule changes shift stage delays; re-trim and take final
        # analyses.  When the optimizer ran with its incremental engine,
        # keep driving it — the final refine then rebuilds only the
        # trimmed stages instead of re-extracting the network.  A
        # routing still on the build's rules keeps the build's trim: an
        # engine-free retrim would re-derive it bit for bit.
        engine = optimize.engine if optimize is not None else None
        if engine is not None or not _on_build_rules(routing, tech):
            retrim_stage(physical, engine=engine)
        analyses = analyze_stage(physical, targets, engine=engine)

        if not policy.reads_budgets \
                or _em_fixable_by_rules(analyses, routing, widest) \
                or analyses.feasible(targets) or attempt == 2:
            break
        # Re-synthesize with smaller stages: less charge per trunk wire.
        stage_budget /= 2.0
        max_stage_cap = stage_budget

    result = FlowResult(
        design_name=design.name,
        policy=policy,
        targets=targets,
        physical=physical,
        analyses=analyses,
        rule_histogram=routing.rule_histogram(),
        ndr_track_cost=routing.ndr_track_cost(),
        optimize=optimize,
        runtime=time.perf_counter() - start,  # static: ok[D002] feeds FlowResult.runtime metadata only
    )
    if os.environ.get("REPRO_VERIFY_FLOWS"):  # static: ok[C003] gates an assertion hook only; never alters artifact content
        # Test/CI hook: statically verify every flow result produced
        # anywhere in the process (set by the test suite's conftest).
        from repro.verify import assert_flow_clean
        assert_flow_clean(result,
                          f"run_flow({design.name!r}, {policy.value})")
    return result


def _on_build_rules(routing: RoutingResult, tech: Technology) -> bool:
    """True when every clock wire is on the default rule, unshielded."""
    default = tech.default_rule
    return all(w.rule == default and not w.shielded
               for w in routing.clock_wires)


def _em_fixable_by_rules(analyses: AnalysisBundle, routing: RoutingResult,
                         widest) -> bool:
    """False when EM violations persist on wires already at the widest rule.

    That is the signature of a structural problem (too much charge per
    trunk) that only re-synthesis can address.
    """
    for record in analyses.em.violations:
        wire = routing.tracks.wire(record.wire_id)
        if wire.rule.width_mult >= widest.width_mult:
            return False
    return True
