"""The flow as a typed stage pipeline.

``run_flow`` used to be a monolith; it is now a composition of four
stages, each consuming and producing serializable artifacts:

``build``
    CTS + routing + skew trim with every wire on the default rule.
    Deterministic in (design, technology, stage params), so its product
    is content-addressed: with an :class:`~repro.io.artifacts.ArtifactStore`
    the build is computed once per design and *shared* across policies,
    slacks, and repeat invocations.  With a :class:`BuildMemo` (one per
    runner or worker) the build a caller computed stays pristine and
    every cell gets a *fork* of it (:meth:`PhysicalDesign.fork`): its
    own clock wires, tree nodes, RC network and extraction, over the
    design, technology and signal wires shared read-only.  A build
    read from the store is a fresh deserialisation and goes to its
    cell as it is.
``policy``
    Rule assignment: one of the uniform baselines, the random baseline,
    or the greedy optimizer.  Mutates the routing in place and returns
    the optimizer result (None for baselines).
``retrim``
    Re-trim skew after the rule changes shifted stage delays.
``analyze``
    The full robustness/power analysis bundle of the final extraction.

Each stage opens a ``flow.<stage>`` span (:mod:`repro.obs`), so a
traced run shows the pipeline breakdown per cell; handing out a fork
opens ``flow.fork``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro import obs
from repro.core.evaluation import AnalysisBundle, analyze_all
from repro.core.optimizer import OptimizeResult, SmartNdrOptimizer
from repro.core.policies import (Policy, apply_random_policy,
                                 apply_uniform_policy)
from repro.core.targets import RobustnessTargets
from repro.cts.refine import refine_skew
from repro.cts.synthesize import synthesize_clock_tree
from repro.netlist.design import Design
from repro.route.router import Router
from repro.tech.technology import Technology


@dataclass(frozen=True)
class BuildParams:
    """Parameters the ``build`` stage is content-addressed by."""

    max_stage_cap: float = 0.0


@dataclass(frozen=True)
class PolicyParams:
    """Parameters the ``policy`` stage is content-addressed by.

    ``random_fraction``/``random_seed`` only matter to ``RANDOM``;
    ``lambda_track`` only to the greedy optimizer's policies — they
    are normalised out of the fingerprint for the others (see
    :meth:`normalized`) so e.g. an ALL_NDR cell hashes identically no
    matter what optimizer knobs rode along.
    """

    policy: Policy = Policy.SMART
    random_fraction: float = 0.3
    random_seed: int = 0
    lambda_track: float = 0.05

    def normalized(self) -> "PolicyParams":
        """Drop knobs the policy does not read (stable cache keys)."""
        if self.policy == Policy.RANDOM:
            return PolicyParams(policy=self.policy,
                                random_fraction=self.random_fraction,
                                random_seed=self.random_seed)
        if self.policy in (Policy.SMART, Policy.SMART_SHIELD):
            return PolicyParams(policy=self.policy,
                                lambda_track=self.lambda_track)
        return PolicyParams(policy=self.policy)


class BuildMemo:
    """The last build a runner computed, kept pristine for its next cells.

    One entry, matched by the identity of the resolved design and
    technology and by equal :class:`BuildParams`, so a hit hashes
    nothing.  :func:`build_stage` never hands the entry itself out,
    only forks of it.
    """

    def __init__(self) -> None:
        self._entry: Optional[tuple[Design, Technology, BuildParams,
                                    "PhysicalDesign"]] = None

    def get(self, design: Design, tech: Technology,
            params: BuildParams) -> Optional["PhysicalDesign"]:
        """The kept build of ``(design, tech, params)``, or None."""
        entry = self._entry
        if entry is None or entry[0] is not design or entry[1] is not tech \
                or entry[2] != params:
            return None
        return entry[3]

    def put(self, design: Design, tech: Technology, params: BuildParams,
            physical: "PhysicalDesign") -> None:
        """Keep ``physical``, replacing the previous entry."""
        self._entry = (design, tech, params, physical)


def build_stage(design: Design, tech: Technology,
                params: BuildParams = BuildParams(),
                store=None, memo: Optional[BuildMemo] = None
                ) -> "PhysicalDesign":
    """CTS + route + trim on the default rule; cached when ``store`` given.

    The caller may mutate what it gets.  With ``memo``, a build the
    memo holds comes back as a fork, and a computed build is kept in
    the memo and comes back as a fork too.  A store hit is a fresh
    deserialisation, returned as it is; a computed build is saved to
    the store before anything can touch it.  Without ``memo``, a
    computed build is returned live.
    """
    from repro.core.flow import PhysicalDesign

    if memo is not None:
        kept = memo.get(design, tech, params)
        if kept is not None:
            return _fork(kept)
    if store is not None:
        from repro.io.artifacts import (content_key, design_fingerprint,
                                        technology_fingerprint)
        key = content_key("build",
                          design=design_fingerprint(design),
                          tech=technology_fingerprint(tech),
                          params=params)
        cached = store.load(key)
        if cached is not None and isinstance(cached, PhysicalDesign):
            return cached

    with obs.span("flow.build"):
        cts = synthesize_clock_tree(design, tech,
                                    max_stage_cap=params.max_stage_cap)
        routing = Router(design, tech).route(cts.tree)
        refine = refine_skew(cts.tree, routing, tech)
        physical = PhysicalDesign(design=design, tech=tech, tree=cts.tree,
                                  routing=routing, cts=cts, refine=refine)
    if store is not None:
        store.save(key, physical)
    if memo is None:
        return physical
    memo.put(design, tech, params, physical)
    return _fork(physical)


def _fork(physical: "PhysicalDesign") -> "PhysicalDesign":
    with obs.span("flow.fork"):
        return physical.fork()


def policy_stage(physical: "PhysicalDesign", targets: RobustnessTargets,
                 params: PolicyParams) -> Optional[OptimizeResult]:
    """Assign routing rules per ``params.policy`` (mutates the routing)."""
    tree, routing, tech = physical.tree, physical.routing, physical.tech
    freq = physical.design.clock_freq
    policy = params.policy

    with obs.span("flow.policy"):
        if policy in (Policy.NO_NDR, Policy.ALL_NDR, Policy.WIDTH_ONLY,
                      Policy.SPACE_ONLY):
            apply_uniform_policy(routing, policy)
            return None
        if policy == Policy.RANDOM:
            apply_random_policy(routing, params.random_fraction,
                                seed=params.random_seed)
            return None
        if policy in (Policy.SMART, Policy.SMART_SHIELD):
            optimizer = SmartNdrOptimizer(
                tree, routing, tech, targets, freq,
                lambda_track=params.lambda_track,
                use_shielding=(policy == Policy.SMART_SHIELD))
            with obs.span("flow.optimize"):
                return optimizer.run(physical.extraction)
        raise ValueError(f"unhandled policy {policy}")  # pragma: no cover


def retrim_stage(physical: "PhysicalDesign", engine=None) -> None:
    """Re-trim skew after rule changes; updates ``physical.refine``.

    With ``engine`` (the optimizer's incremental engine over the same
    routing), the trim rebuilds only the touched stages instead of
    re-extracting the whole network.
    """
    with obs.span("flow.retrim"):
        physical.refine = refine_skew(physical.tree, physical.routing,
                                      physical.tech, engine=engine)


def analyze_stage(physical: "PhysicalDesign", targets: RobustnessTargets,
                  engine=None) -> AnalysisBundle:
    """Full analysis bundle of the (re-trimmed) extraction."""
    with obs.span("flow.analyze"):
        return analyze_all(physical.extraction, physical.tech,
                           physical.design.clock_freq, targets,
                           engine=engine)
