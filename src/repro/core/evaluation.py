"""One-stop analysis bundle: everything a rule assignment is judged on."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.targets import RobustnessTargets
from repro.extract.extractor import Extraction
from repro.power.clockpower import PowerReport, analyze_power
from repro.reliability.em import DEFAULT_EM_FACTOR, EmReport, analyze_em
from repro.tech.technology import Technology
from repro.timing.arrival import ClockTiming, analyze_clock_timing
from repro.timing.crosstalk import CrosstalkReport, analyze_crosstalk
from repro.timing.montecarlo import MonteCarloResult, run_monte_carlo


@dataclass
class AnalysisBundle:
    """All robustness/power analyses of one extracted clock network."""

    timing: ClockTiming
    crosstalk: CrosstalkReport
    em: EmReport
    power: PowerReport
    mc: MonteCarloResult

    def violations(self, targets: RobustnessTargets) -> dict[str, float]:
        """Positive excess per violated constraint (empty when feasible)."""
        return targets.violations(worst_delta=self.crosstalk.worst_delta,
                                  skew_3sigma=self.mc.skew_3sigma,
                                  worst_slew=self.timing.worst_slew,
                                  em_util=self.em.worst_utilization)

    def feasible(self, targets: RobustnessTargets) -> bool:
        """True when no constraint in ``targets`` is violated."""
        return not self.violations(targets)


def analyze_all(extraction: Extraction, tech: Technology,
                freq: float, targets: RobustnessTargets,
                engine=None) -> AnalysisBundle:
    """Run the full analysis stack on one extraction.

    With ``engine`` (an :class:`~repro.engine.AnalysisEngine` wrapping
    this extraction), dirty-tracked kernel analyses are used instead:
    only analyses whose inputs changed since the last call recompute.
    """
    if engine is not None:
        return engine.analyze()
    timing = analyze_clock_timing(extraction.network, tech)
    crosstalk = analyze_crosstalk(extraction.network, extraction.wires,
                                  alignment=targets.alignment)
    em = analyze_em(extraction.network, extraction.routing, tech.vdd, freq,
                    em_factor=DEFAULT_EM_FACTOR)
    power = analyze_power(extraction, tech, freq)
    mc = run_monte_carlo(extraction.network, extraction.wires,
                         extraction.routing, tech,
                         n_samples=targets.mc_samples, seed=targets.mc_seed)
    return AnalysisBundle(timing=timing, crosstalk=crosstalk, em=em,
                          power=power, mc=mc)


def targets_from_reference(reference: AnalysisBundle, tech: Technology,
                           slack: float = 0.15, **kwargs) -> RobustnessTargets:
    """Robustness budgets pegged to a reference (usually all-NDR) run."""
    return RobustnessTargets.from_reference(
        worst_delta=reference.crosstalk.worst_delta,
        skew_3sigma=reference.mc.skew_3sigma,
        max_slew=tech.max_slew,
        slack=slack,
        **kwargs,
    )
