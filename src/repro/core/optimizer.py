"""Sensitivity-guided greedy rule assignment — the paper's method.

Starting from all-default routing, the optimizer repairs each violated
robustness constraint with the cheapest effective upgrades, then runs a
peephole *downgrade* pass to reclaim upgrades made redundant along the
way.

Constraint-specific repair moves (each iteration plans a batch, applies
it, re-extracts, re-verifies — so every decision is made against real
extraction, not stale estimates):

* **EM** — only width helps (J ~ 1/width).  Each violating wire takes
  the cheapest rule whose width brings utilisation under the limit.
* **Slew** — driven by wire resistance; the worst-slew sink's stage
  gets its highest-R*C wire widened.
* **Delta delay** — per-sink decomposition attributes the worst sink's
  exposure to individual wires; the best reduction-per-cost upgrades
  (usually spacing) are taken until the sink is projected in budget.
* **3-sigma skew** — wires are ranked by the variation-footprint proxy
  (relative width noise x Elmore weight); the top contributors are
  widened, with batch size escalating while Monte Carlo stays violated.

The cost of an upgrade is its switched-capacitance increase plus a
congestion price for the tracks it blocks (``lambda_track`` per um) —
without the congestion term, spacing upgrades would look free and the
optimizer would stamp them everywhere.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field

from repro import obs
from repro.core.evaluation import AnalysisBundle, analyze_all
from repro.core.features import WireContext, wire_contexts
from repro.core.sensitivity import (RuleSensitivity, SensitivityCache,
                                    evaluate_rule)
from repro.core.targets import RobustnessTargets
from repro.cts.refine import refine_skew
from repro.cts.tree import ClockTree
from repro.extract.extractor import Extraction
from repro.reliability.em import DEFAULT_EM_FACTOR
from repro.route.router import RoutingResult
from repro.tech.ndr import RoutingRule
from repro.tech.technology import Technology


@dataclass
class OptimizeResult:
    """Outcome of a smart-NDR run."""

    extraction: Extraction
    analyses: AnalysisBundle
    feasible: bool
    iterations: int
    upgraded: dict[int, str] = field(default_factory=dict)  # wire id -> rule
    downgraded: int = 0
    runtime: float = 0.0
    #: the incremental engine used (None on the legacy path); callers
    #: may keep driving it, e.g. for a final refine + re-analysis
    engine: object = field(default=None, repr=False, compare=False)

    @property
    def num_upgraded(self) -> int:
        return len(self.upgraded)


@dataclass(frozen=True)
class Move:
    """One planned change to a wire: a rule, optionally plus shields."""

    rule: RoutingRule
    shielded: bool = False

    @property
    def label(self) -> str:
        return self.rule.name.value + ("+SH" if self.shielded else "")


class SmartNdrOptimizer:
    """Greedy constraint-driven NDR assignment over one routed clock."""

    def __init__(self, tree: ClockTree, routing: RoutingResult,
                 tech: Technology, targets: RobustnessTargets, freq: float,
                 lambda_track: float = 0.05, max_iterations: int = 10,
                 use_shielding: bool = False,
                 use_engine: bool = True,
                 verify_every: int = 0) -> None:
        if lambda_track < 0.0:
            raise ValueError("lambda_track must be non-negative")
        if max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if verify_every < 0:
            raise ValueError("verify_every must be >= 0")
        self.use_shielding = use_shielding
        #: ``True`` = incremental engine; ``False`` = full re-analysis by
        #: the reference analyzers (the engine's equivalence oracle)
        self.use_engine = use_engine
        #: debug mode: run the engine-coherence oracle every N applied
        #: iterations (0 = off); raises VerificationError on any ERROR
        self.verify_every = verify_every
        self.tree = tree
        self.routing = routing
        self.tech = tech
        self.targets = targets
        self.freq = freq
        self.lambda_track = lambda_track
        self.max_iterations = max_iterations
        self._default = tech.default_rule
        self._sens_cache: SensitivityCache | None = None

    # -- public ----------------------------------------------------------------

    def run(self, extraction: Extraction) -> OptimizeResult:
        """Assign rules in place on the routing; returns the final state.

        ``extraction`` is the current extraction of the routing (the
        build's, or a refine's): the optimizer starts from it instead of
        re-extracting, and updates it in place as rules change.
        """
        if extraction.routing is not self.routing:
            raise ValueError("extraction is not of the optimizer's routing")
        start = time.perf_counter()  # static: ok[D002] feeds OptimizeResult.runtime metadata only
        upgraded: dict[int, str] = {}
        engine = None
        if self.use_engine:
            # Imported lazily: repro.engine pulls repro.core.evaluation
            # back in, which would cycle at module-import time.
            from repro.engine import AnalysisEngine
            engine = AnalysisEngine(extraction, self.tree, self.tech,
                                    self.freq, self.targets)
            self._sens_cache = SensitivityCache(self.routing,
                                               self.tech.rules)
        with obs.span("opt.analyze"):
            analyses = analyze_all(extraction, self.tech, self.freq,
                                   self.targets, engine=engine)
        iterations = 0
        sigma_batch = 1.0  # escalation multiplier for the sigma planner
        prev_score = float("inf")
        stall = 0
        for _ in range(self.max_iterations):
            violations = analyses.violations(self.targets)
            if not violations:
                break
            score = self._violation_score(violations)
            # Two consecutive non-improving iterations = stuck (one is
            # tolerated: planner escalation may need a second round).
            if score >= 0.995 * prev_score:
                stall += 1
                if stall >= 2:
                    break
            else:
                stall = 0
            prev_score = min(prev_score, score)
            iterations += 1
            obs.counter("opt.iterations").inc()
            plan: dict[int, Move] = {}
            with obs.span("opt.plan"):
                contexts = wire_contexts(self.tree, extraction)
                if "em" in violations:
                    self._plan_em(analyses, contexts, plan)
                if "slew" in violations:
                    self._plan_slew(extraction, analyses, contexts, plan)
                if "delta_delay" in violations:
                    self._plan_delta(extraction, analyses, contexts, plan)
                if "skew_3sigma" in violations:
                    self._plan_sigma(extraction, analyses, contexts, plan,
                                     sigma_batch)
                    sigma_batch *= 2
            if not plan:
                break  # nothing more to try; report infeasible below
            obs.histogram("opt.plan_wires").observe(float(len(plan)))
            for wire_id, move in plan.items():
                self.routing.assign_rule(wire_id, move.rule)
                if move.shielded:
                    self.routing.assign_shield(wire_id, True)
                upgraded[wire_id] = move.label
            # Rule changes shift stage delays and unbalance the tree;
            # re-trim before judging, or the Monte-Carlo skew conflates
            # nominal imbalance with variation.
            with obs.span("opt.extract"):
                if engine is not None:
                    engine.apply_rule_changes(plan)
            with obs.span("opt.refine"):
                extraction = refine_skew(self.tree, self.routing, self.tech,
                                         engine=engine).extraction
            with obs.span("opt.analyze"):
                analyses = analyze_all(extraction, self.tech, self.freq,
                                       self.targets, engine=engine)
            if self.verify_every and iterations % self.verify_every == 0:
                self._run_oracle(extraction, engine, iterations)

        downgraded = 0
        if analyses.feasible(self.targets) and upgraded:
            extraction, analyses, downgraded = self._downgrade_pass(
                extraction, analyses, upgraded, engine)

        return OptimizeResult(
            extraction=extraction,
            analyses=analyses,
            feasible=analyses.feasible(self.targets),
            iterations=iterations,
            upgraded=upgraded,
            downgraded=downgraded,
            runtime=time.perf_counter() - start,  # static: ok[D002] feeds OptimizeResult.runtime metadata only
            engine=engine,
        )

    def _run_oracle(self, extraction: Extraction, engine,
                    iteration: int) -> None:
        """Debug hook: diff the engine's caches against ground truth.

        Runs the ``oracle`` check family over the optimizer's live
        state (engine, sensitivity cache included) and raises
        :class:`~repro.verify.VerificationError` on any ERROR — so a
        dirty-tracking bug aborts at the iteration that introduced it
        instead of surfacing as a wrong number at the end.
        """
        # Imported lazily: repro.verify type-checks against repro.engine,
        # and the oracle pulls analysis modules back in.
        from repro.verify import (VerificationError, VerifyContext,
                                  run_checks)
        ctx = VerifyContext(tech=self.tech, tree=self.tree,
                            routing=self.routing, extraction=extraction,
                            engine=engine, sens_cache=self._sens_cache,
                            freq=self.freq)
        report = run_checks(ctx, kinds=("oracle",))
        if report.has_errors:
            raise VerificationError(
                report, f"optimizer iteration {iteration}")

    def _violation_score(self, violations: dict[str, float]) -> float:
        """Total budget-normalised constraint excess (0 = feasible)."""
        budget_of = {
            "delta_delay": self.targets.max_worst_delta,
            "skew_3sigma": self.targets.max_skew_3sigma,
            "slew": self.targets.max_slew,
            "em": self.targets.max_em_util,
        }
        return sum(excess / budget_of[name]
                   for name, excess in violations.items())


    def _upgrades(self, rule: RoutingRule) -> tuple[RoutingRule, ...]:
        """Strictly more robust rules *within the technology's rule set*.

        Restricting ``tech.rules`` (ablations, constrained libraries)
        restricts the optimizer's decision space accordingly.
        """
        return tuple(r for r in self.tech.rules
                     if r.dominates(rule) and r != rule)

    def _widened(self, rule: RoutingRule) -> RoutingRule:
        """The cheapest available rule that doubles this rule's width.

        Falls back to ``rule`` itself when the technology offers no
        wider rule (restricted rule sets).
        """
        candidates = [r for r in self._upgrades(rule)
                      if r.width_mult > rule.width_mult]
        if not candidates:
            return rule
        return min(candidates,
                   key=lambda r: (r.width_mult, r.space_mult))

    # -- per-constraint planners -------------------------------------------------

    def _sens(self, wire_id: int, rule: RoutingRule, ctx: WireContext,
              shielded: bool = False) -> RuleSensitivity:
        return evaluate_rule(self.routing, wire_id, rule, ctx, self.freq,
                             self.tech.vdd, DEFAULT_EM_FACTOR,
                             shielded=shielded, cache=self._sens_cache)

    def _plan_em(self, analyses: AnalysisBundle,
                 contexts: dict[int, WireContext],
                 plan: dict[int, Move]) -> None:
        """Widen every EM-violating wire just enough."""
        for record in analyses.em.violations:
            wire = self.routing.tracks.wire(record.wire_id)
            ctx = contexts.get(record.wire_id)
            if ctx is None:
                continue
            current = self._sens(record.wire_id, wire.rule, ctx)
            best: RuleSensitivity | None = None
            for rule in self._upgrades(wire.rule):
                cand = self._sens(record.wire_id, rule, ctx)
                if cand.em_util > self.targets.max_em_util:
                    continue
                if best is None or (cand.cost_vs(current, self.lambda_track)
                                    < best.cost_vs(current, self.lambda_track)):
                    best = cand
            if best is None:
                # Nothing meets the budget; take the widest available.
                widest = max(self._upgrades(wire.rule),
                             key=lambda r: r.width_mult, default=None)
                if widest is None:
                    continue
                best = self._sens(record.wire_id, widest, ctx)
            plan[record.wire_id] = Move(best.rule)

    def _plan_slew(self, extraction: Extraction, analyses: AnalysisBundle,
                   contexts: dict[int, WireContext],
                   plan: dict[int, Move]) -> None:
        """Widen the dominant-R*C wire in each slew-violating sink's stage."""
        network = extraction.network
        stage_of_pin = {sink.sink_pin.full_name: idx
                        for idx, sink in network.flop_sinks()}
        seen_stages: set[int] = set()
        for sink in analyses.timing.sinks:
            if sink.slew <= self.targets.max_slew:
                continue
            stage_idx = stage_of_pin[sink.pin.full_name]
            if stage_idx in seen_stages:
                continue
            seen_stages.add(stage_idx)
            stage = network.stages[stage_idx]
            down = stage.downstream_caps()
            best_id, best_score = None, 0.0
            for node in stage.nodes:
                if node.wire_id is None or node.wire_id in plan:
                    continue
                wire = self.routing.tracks.wire(node.wire_id)
                if wire.rule.width_mult >= 2.0:
                    continue
                score = node.r * down[node.idx]
                if score > best_score:
                    best_id, best_score = node.wire_id, score
            if best_id is not None:
                wire = self.routing.tracks.wire(best_id)
                widened = self._widened(wire.rule)
                if widened != wire.rule:
                    plan[best_id] = Move(widened, wire.shielded)

    def _plan_delta(self, extraction: Extraction, analyses: AnalysisBundle,
                    contexts: dict[int, WireContext],
                    plan: dict[int, Move], top_sinks: int = 50) -> None:
        """Fix the worst delta-delay sinks by best reduction-per-cost upgrades.

        Sinks are processed worst-first; upgrades already planned for
        earlier sinks are credited to later ones (a shared trunk fix
        helps every sink below it), so shared aggressor exposure is not
        repaired twice.
        """
        budget = self.targets.max_worst_delta
        offenders = sorted(
            (s for s in analyses.crosstalk.sinks if s.worst > budget),
            key=lambda s: s.worst, reverse=True)[:top_sinks]
        # Coupling-survival ratio of wires already planned this round.
        planned_ratio: dict[int, float] = {}
        sens_cache: dict[tuple[int, str], RuleSensitivity] = {}

        def sens(wire_id: int, rule: RoutingRule,
                 shielded: bool = False) -> RuleSensitivity:
            key = (wire_id, rule.name.value + ("+SH" if shielded else ""))
            if key not in sens_cache:
                sens_cache[key] = self._sens(wire_id, rule,
                                             contexts[wire_id],
                                             shielded=shielded)
            return sens_cache[key]

        index = _dd_index(extraction)
        for offender in offenders:
            contributions, cc_through = _sink_dd_by_wire(
                extraction, offender.pin.full_name, index)
            projected = offender.worst - sum(
                contrib * (1.0 - planned_ratio[wid])
                for wid, contrib in contributions.items()
                if wid in planned_ratio)
            needed = projected - 0.85 * budget
            if needed <= 0.0:
                continue
            # Rank candidate upgrades by projected reduction per cost.
            # Two levers per wire: spacing cuts its own coupling caps;
            # width cuts the shared resistance that multiplies every
            # coupling downstream of it.
            #
            # A heap on (-score, seq) instead of a full sort: only the
            # consumed prefix pays log cost, and equal-score candidates
            # pop in insertion order — the old stable sort's tie-break,
            # so set iteration order still cannot leak into the plan.
            # Candidates come from cached sensitivities (``sens`` above),
            # so pushing is cheap and popping is the only ranked work.
            ranked: list[tuple[float, int, float, float, int, Move]] = []
            candidate_ids = sorted(set(contributions) | set(cc_through))
            for wire_id in candidate_ids:
                if wire_id in plan or wire_id not in contexts:
                    continue
                contrib = contributions.get(wire_id, 0.0)
                through = cc_through.get(wire_id, 0.0)
                wire = self.routing.tracks.wire(wire_id)
                current = sens(wire_id, wire.rule, wire.shielded)
                cc_now = current.parasitics.cc_signal
                moves = [Move(rule, wire.shielded)
                         for rule in self._upgrades(wire.rule)]
                if self.use_shielding and not wire.shielded:
                    moves.append(Move(wire.rule, shielded=True))
                for move in moves:
                    cand = sens(wire_id, move.rule, move.shielded)
                    ratio = (cand.parasitics.cc_signal / cc_now
                             if cc_now > 0.0 else 1.0)
                    reduction = contrib * (1.0 - ratio)
                    reduction += max(0.0, current.parasitics.r
                                     - cand.parasitics.r) * through
                    if reduction <= 1e-9:
                        continue
                    cost = max(cand.cost_vs(current, self.lambda_track), 1e-6)
                    ranked.append((-(reduction / cost), len(ranked),
                                   reduction, ratio, wire_id, move))
            heapq.heapify(ranked)
            while ranked and needed > 0.0:
                _, _, reduction, ratio, wire_id, move = \
                    heapq.heappop(ranked)
                if wire_id in plan:
                    continue
                plan[wire_id] = move
                planned_ratio[wire_id] = ratio
                needed -= reduction

    def _plan_sigma(self, extraction: Extraction, analyses: AnalysisBundle,
                    contexts: dict[int, WireContext],
                    plan: dict[int, Move],
                    escalation: float) -> None:
        """Widen top variation-footprint wires, scaled to the needed cut.

        Widening halves a wire's relative width noise, so upgrading
        wires carrying a fraction ``f`` of the total footprint trims
        roughly ``f/2`` of the (reducible) skew sigma.  We aim for twice
        the measured excess (reducible share is unknown: thickness and
        buffer noise set a floor NDR cannot touch) and let the outer
        loop escalate if Monte Carlo disagrees.
        """
        current = analyses.mc.skew_3sigma
        excess = current - self.targets.max_skew_3sigma
        if excess <= 0.0:
            return
        fraction = min(1.0, max(0.05, 4.0 * excess / current) * escalation)
        scored: list[tuple[float, int]] = []
        total_score = 0.0
        for wire_id, ctx in contexts.items():
            wire = self.routing.tracks.wire(wire_id)
            para = extraction.wires[wire_id]
            layer = wire.layer
            score = (layer.min_width / wire.width) * para.r * ctx.downstream_cap
            total_score += score
            if wire.rule.width_mult >= 2.0 or wire_id in plan:
                continue
            scored.append((-score, -wire_id))
        # Heap on (-score, -wire_id): pops match the old descending
        # tuple sort (score desc, then wire id desc on ties), but only
        # the covered prefix is ever ordered.
        heapq.heapify(scored)
        covered = 0.0
        while scored and covered < fraction * total_score:
            neg_score, neg_id = heapq.heappop(scored)
            score, wire_id = -neg_score, -neg_id
            wire = self.routing.tracks.wire(wire_id)
            widened = self._widened(wire.rule)
            if widened != wire.rule:
                plan[wire_id] = Move(widened, wire.shielded)
            covered += score

    # -- downgrade peephole --------------------------------------------------------

    def _downgrade_pass(self, extraction: Extraction,
                        analyses: AnalysisBundle,
                        upgraded: dict[int, str],
                        engine=None) -> tuple[Extraction,
                                              AnalysisBundle, int]:
        """Revert upgrades that look redundant; keep only if still feasible.

        Candidates are upgrades whose own EM and delta-delay footprints
        at the default rule sit well inside the budgets.  The batch is
        verified with the full analysis stack; on any violation the
        whole batch is restored (one shot, conservative).
        """
        contexts = wire_contexts(self.tree, extraction)
        candidates: list[int] = []
        for wire_id in upgraded:
            ctx = contexts.get(wire_id)
            if ctx is None:
                continue
            cand = self._sens(wire_id, self._default, ctx)
            if (cand.em_util <= 0.85 * self.targets.max_em_util
                    and cand.dd_own <= 0.05 * self.targets.max_worst_delta
                    and cand.sigma_score <= 0.5):
                candidates.append(wire_id)
        if not candidates:
            return extraction, analyses, 0

        with obs.span("opt.downgrade", candidates=len(candidates)) as span:
            saved = {wid: (self.routing.tracks.wire(wid).rule,
                           self.routing.tracks.wire(wid).shielded)
                     for wid in candidates}
            for wire_id in candidates:
                self.routing.assign_rule(wire_id, self._default)
                self.routing.assign_shield(wire_id, False)
            if engine is not None:
                engine.apply_rule_changes(candidates)
            new_extraction = refine_skew(self.tree, self.routing, self.tech,
                                         engine=engine).extraction
            new_analyses = analyze_all(new_extraction, self.tech, self.freq,
                                       self.targets, engine=engine)
            accepted = new_analyses.feasible(self.targets)
            if span is not None:
                span.attrs["accepted"] = accepted
            if accepted:
                for wire_id in candidates:
                    del upgraded[wire_id]
                return new_extraction, new_analyses, len(candidates)
            for wire_id, (rule, shielded) in saved.items():
                self.routing.assign_rule(wire_id, rule)
                self.routing.assign_shield(wire_id, shielded)
            if engine is not None:
                engine.apply_rule_changes(candidates)
            extraction = refine_skew(self.tree, self.routing, self.tech,
                                     engine=engine).extraction
            analyses = analyze_all(extraction, self.tech, self.freq,
                                   self.targets, engine=engine)
            return extraction, analyses, 0


def _dd_index(extraction: Extraction) -> tuple[dict[int, int],
                                               dict[str, tuple[int, object]]]:
    """(stage parent map, flop pin -> (stage, sink)) for dd decomposition.

    Built once per planning pass and shared across sinks —
    :func:`_sink_dd_by_wire` otherwise rescans every stage per call.
    """
    network = extraction.network
    parent_of: dict[int, int] = {}
    for idx, stage in enumerate(network.stages):
        for sink in stage.sinks:
            if sink.next_stage_tree_id is not None:
                child = network.stage_of_tree_node[sink.next_stage_tree_id]
                parent_of[child] = idx
    flop_of = {sink.sink_pin.full_name: (idx, sink)
               for idx, sink in network.flop_sinks()}
    return parent_of, flop_of


def _sink_dd_by_wire(extraction: Extraction,
                     pin_name: str,
                     index=None) -> tuple[dict[int, float],
                                          dict[int, float]]:
    """Decompose one flop pin's worst-case delta delay by wire.

    Walks the sink's stage chain; within each stage, each coupling cap
    contributes ``cc/2 * (r_drive + R_shared)`` per RC node it sits on.

    Returns ``(contributions, cc_through)``:

    * ``contributions[w]`` — delta delay injected by wire *w*'s own
      coupling caps (reducible by a spacing upgrade on *w*);
    * ``cc_through[w]`` — total coupling capacitance whose shared path
      to this sink flows through *w*, so cutting *w*'s resistance by
      ``dR`` cuts the sink's delta delay by ``dR * cc_through[w]``
      (the width-upgrade lever).
    """
    network = extraction.network
    parent_of, flop_of = index if index is not None \
        else _dd_index(extraction)
    if pin_name not in flop_of:
        raise KeyError(f"no flop pin named {pin_name!r}")
    target_stage, target_sink = flop_of[pin_name]

    # Chain from root stage to the sink's stage, with the victim node in
    # each stage (the node the path passes through).
    chain: list[tuple[int, int]] = [(target_stage, target_sink.node_idx)]
    while chain[0][0] in parent_of:
        child_idx = chain[0][0]
        parent_idx = parent_of[child_idx]
        parent_stage = network.stages[parent_idx]
        via = next(s.node_idx for s in parent_stage.sinks
                   if s.next_stage_tree_id is not None
                   and network.stage_of_tree_node[s.next_stage_tree_id]
                   == child_idx)
        chain.insert(0, (parent_idx, via))

    contributions: dict[int, float] = {}
    cc_through: dict[int, float] = {}
    for stage_idx, via_node in chain:
        stage = network.stages[stage_idx]
        nodes = stage.nodes
        r_path = [0.0] * len(nodes)
        for node in nodes:
            if node.parent is not None:
                r_path[node.idx] = r_path[node.parent] + node.r
        path = stage.path_to_root(via_node)
        on_path = [False] * len(nodes)
        for idx in path:
            on_path[idx] = True
        meet = [0] * len(nodes)
        for node in nodes:
            if on_path[node.idx]:
                meet[node.idx] = node.idx
            elif node.parent is not None:
                meet[node.idx] = meet[node.parent]
        r_drive = stage.driver.r_drive
        cc_at_meet = [0.0] * len(nodes)
        for node in nodes:
            shared = r_drive + r_path[meet[node.idx]]
            node_cc = 0.0
            for wire_id, _ca, _cr in node.cap_wire:
                cc = extraction.wires[wire_id].cc_signal
                if cc > 0.0:
                    contributions[wire_id] = (contributions.get(wire_id, 0.0)
                                              + (cc / 2.0) * shared)
                    node_cc += cc / 2.0
            cc_at_meet[meet[node.idx]] += node_cc
        # Suffix-accumulate coupling mass up the sink path: mass with a
        # meet at or below a path node flows through its incoming wire.
        running = 0.0
        for idx in path:  # deepest (via) first, root last
            running += cc_at_meet[idx]
            node = nodes[idx]
            if node.parent is not None and node.wire_id is not None:
                cc_through[node.wire_id] = (cc_through.get(node.wire_id, 0.0)
                                            + running)
    return contributions, cc_through
