"""Multiple clock domains sharing one die.

A second clock tree on the same routing layers is the nastiest
aggressor a clock can have: it toggles every cycle (activity 1.0), and
uniform-NDR practice protects each domain against *signals* but not
necessarily against the other clock.  This module builds N domains
sequentially into one shared track space, so each domain's extraction
sees the others' wires as full-activity neighbors, and runs the rule
assignment per domain.

Mechanics: each domain gets its own tree, its own per-domain
:class:`~repro.route.router.RoutingResult` view, and its own
extraction/analysis/optimization — all over the one shared
:class:`~repro.route.tracks.TrackManager`.  Cross-domain protection is
symmetric through the spacing guarantees both sides' rules impose.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro.core.evaluation import AnalysisBundle, analyze_all
from repro.core.optimizer import OptimizeResult, SmartNdrOptimizer
from repro.core.policies import Policy, uniform_rule_of
from repro.core.targets import RobustnessTargets
from repro.cts.refine import refine_skew
from repro.cts.synthesize import synthesize_tree_for
from repro.cts.tree import ClockTree
from repro.extract.extractor import Extraction
from repro.geom.point import Point
from repro.netlist.cell import Pin
from repro.netlist.design import Design
from repro.route.router import Router, RoutingResult
from repro.tech.technology import Technology, default_technology


@dataclass(frozen=True)
class ClockDomain:
    """One clock domain: a name, its source point, and its sink pins."""

    name: str
    source: Point
    sinks: tuple[Pin, ...]

    def __post_init__(self) -> None:
        if not self.sinks:
            raise ValueError(f"domain {self.name!r} has no sinks")


def split_domains(design: Design, n_domains: int = 2,
                  interleave: bool = False) -> list[ClockDomain]:
    """Partition a design's sinks into clock domains.

    Default: geographic vertical slabs (domain 0 leftmost), each source
    on the bottom die edge under its slab — per-region clocks whose
    trees barely meet.  With ``interleave``, sinks alternate between
    domains across the whole die — the overlapping-logic arrangement
    where the two trees weave through each other and inter-clock
    coupling is unavoidable.  Domain 0 keeps the design's original
    source.
    """
    if n_domains < 1:
        raise ValueError("need at least one domain")
    if n_domains > design.num_sinks:
        raise ValueError("more domains than sinks")
    ordered = sorted(design.clock_sinks, key=lambda p: (p.location.x,
                                                        p.location.y))
    groups: list[list[Pin]] = [[] for _ in range(n_domains)]
    if interleave:
        for i, pin in enumerate(ordered):
            groups[i % n_domains].append(pin)
    else:
        chunk = len(ordered) / n_domains
        for i in range(n_domains):
            groups[i] = ordered[int(i * chunk):int((i + 1) * chunk)]
    domains = []
    for i, sinks in enumerate(groups):
        if i == 0 and design.clock_root is not None:
            source = design.clock_root.location
        else:
            mid_x = sum(p.location.x for p in sinks) / len(sinks)
            source = Point(mid_x, design.die.ylo)
        domains.append(ClockDomain(name=f"clk{i}", source=source,
                                   sinks=tuple(sinks)))
    return domains


@dataclass
class DomainResult:
    """One domain's implementation and analyses."""

    domain: ClockDomain
    tree: ClockTree
    routing: RoutingResult          # per-domain view over the shared tracks
    extraction: Extraction
    analyses: AnalysisBundle
    targets: RobustnessTargets
    optimize: Optional[OptimizeResult] = None

    @property
    def feasible(self) -> bool:
        """True when this domain meets its robustness targets."""
        return self.analyses.feasible(self.targets)

    @property
    def clock_power(self) -> float:
        """This domain's total clock power, uW."""
        return self.analyses.power.p_total


@dataclass
class MultiClockResult:
    """All domains of one multi-clock build."""

    domains: list[DomainResult] = field(default_factory=list)
    runtime: float = 0.0

    def domain(self, name: str) -> DomainResult:
        """Look up one domain's result by name."""
        for result in self.domains:
            if result.domain.name == name:
                return result
        raise KeyError(f"no domain named {name!r}")

    @property
    def total_power(self) -> float:
        """Sum of all domains' clock power, uW."""
        return sum(d.clock_power for d in self.domains)

    @property
    def all_feasible(self) -> bool:
        """True when every domain meets its targets."""
        return all(d.feasible for d in self.domains)


def run_multiclock_flow(design: Design, domains: list[ClockDomain],
                        tech: Optional[Technology] = None,
                        policy: Policy = Policy.SMART,
                        targets=None,
                        lambda_track: float = 0.05) -> MultiClockResult:
    """Build, route and rule-assign every domain into one track space.

    Supported policies: the uniform ones and ``SMART`` (per domain).
    ``targets`` is either one :class:`RobustnessTargets` for every
    domain or a dict mapping domain names to per-domain targets (the
    reference-pegged protocol needs per-domain budgets: the domains'
    environments differ); defaults to the period-derived spec.
    """
    tech = tech if tech is not None else default_technology()
    if targets is None:
        targets = RobustnessTargets.for_period(design.clock_period,
                                               tech.max_slew)
    if isinstance(targets, RobustnessTargets):
        targets_of = {domain.name: targets for domain in domains}
    else:
        targets_of = dict(targets)
        missing = {d.name for d in domains} - set(targets_of)
        if missing:
            raise ValueError(f"no targets for domains {sorted(missing)}")
    if policy in (Policy.SMART_ML, Policy.SMART_SHIELD, Policy.RANDOM):
        raise ValueError(f"policy {policy} is not supported multi-domain")

    start = time.perf_counter()
    router = Router(design, tech)

    # 1. Synthesize and route every domain into the shared track space.
    trees: list[ClockTree] = []
    routings: list[RoutingResult] = []
    shared = None
    for domain in domains:
        cts = synthesize_tree_for(list(domain.sinks), domain.source,
                                  design, tech)
        trees.append(cts.tree)
        routing = router.route_clock_tree(cts.tree, net_name=domain.name,
                                          shared=shared)
        shared = routing.tracks
        routings.append(routing)
    router.route_signals(shared)

    # 2. Per-domain trim, policy, re-trim, analyses.
    result = MultiClockResult()
    freq = design.clock_freq
    for domain, tree, routing in zip(domains, trees, routings):
        domain_targets = targets_of[domain.name]
        refine = refine_skew(tree, routing, tech)
        optimize: Optional[OptimizeResult] = None
        if policy in (Policy.NO_NDR, Policy.ALL_NDR, Policy.WIDTH_ONLY,
                      Policy.SPACE_ONLY):
            rule = uniform_rule_of(policy)
            for wire in routing.clock_wires:
                routing.assign_rule(wire.wire_id, rule)
        elif policy == Policy.SMART:
            optimizer = SmartNdrOptimizer(tree, routing, tech,
                                          domain_targets, freq,
                                          lambda_track=lambda_track)
            optimize = optimizer.run(refine.extraction)
        refine = refine_skew(tree, routing, tech)
        analyses = analyze_all(refine.extraction, tech, freq,
                               domain_targets)
        result.domains.append(DomainResult(
            domain=domain,
            tree=tree,
            routing=routing,
            extraction=refine.extraction,
            analyses=analyses,
            targets=domain_targets,
            optimize=optimize,
        ))
    result.runtime = time.perf_counter() - start
    return result
