"""Multiple clock domains sharing one die.

A second clock tree on the same routing layers is the nastiest
aggressor a clock can have: it toggles every cycle (activity 1.0), and
uniform-NDR practice protects each domain against *signals* but not
necessarily against the other clock.  This module builds N domains
sequentially into one shared track space, so each domain's extraction
sees the others' wires as full-activity neighbors, and runs the rule
assignment per domain.

Mechanics: each domain is a :class:`~repro.core.flow.PhysicalDesign`
over its own tree and its own per-domain
:class:`~repro.route.router.RoutingResult` view of the one shared
:class:`~repro.route.tracks.TrackManager`, and goes through the flow's
own stages (:mod:`repro.core.stages`): ``policy``, ``retrim`` and
``analyze``.  Cross-domain protection is symmetric through the spacing
guarantees both sides' rules impose.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro.core.evaluation import AnalysisBundle
from repro.core.flow import PhysicalDesign
from repro.core.optimizer import OptimizeResult
from repro.core.policies import Policy
from repro.core.stages import (PolicyParams, analyze_stage, policy_stage,
                               retrim_stage)
from repro.core.targets import RobustnessTargets
from repro.cts.refine import refine_skew
from repro.cts.synthesize import CtsResult, synthesize_tree_for
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

    Every policy runs per domain through
    :func:`~repro.core.stages.policy_stage`.
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

    start = time.perf_counter()
    router = Router(design, tech)

    # 1. Synthesize and route every domain into the shared track space.
    builds: list[tuple[CtsResult, RoutingResult]] = []
    shared = None
    for domain in domains:
        cts = synthesize_tree_for(list(domain.sinks), domain.source,
                                  design, tech)
        routing = router.route_clock_tree(cts.tree, net_name=domain.name,
                                          shared=shared)
        shared = routing.tracks
        builds.append((cts, routing))
    router.route_signals(shared)

    # 2. Trim and assign rules domain by domain, in order: each domain
    #    sees the rules the earlier domains chose.
    params = PolicyParams(policy=policy, lambda_track=lambda_track)
    assigned: list[tuple[PhysicalDesign, Optional[OptimizeResult]]] = []
    for domain, (cts, routing) in zip(domains, builds):
        physical = PhysicalDesign(design=design, tech=tech, tree=cts.tree,
                                  routing=routing, cts=cts,
                                  refine=refine_skew(cts.tree, routing, tech))
        optimize = policy_stage(physical, targets_of[domain.name], params)
        assigned.append((physical, optimize))

    # 3. Later domains' rules move earlier domains' coupling and fringe
    #    caps, so every domain is re-trimmed and analyzed on the final
    #    routing.  Engine-free: an earlier domain's engine is stale now.
    result = MultiClockResult()
    for domain, (physical, optimize) in zip(domains, assigned):
        domain_targets = targets_of[domain.name]
        retrim_stage(physical)
        result.domains.append(DomainResult(
            domain=domain,
            tree=physical.tree,
            routing=physical.routing,
            extraction=physical.extraction,
            analyses=analyze_stage(physical, domain_targets),
            targets=domain_targets,
            optimize=optimize,
        ))
    result.runtime = time.perf_counter() - start
    return result
