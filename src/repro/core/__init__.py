"""Smart non-default routing: the paper's primary contribution.

The problem: clock routing traditionally applies a non-default rule
(2x width / 2x spacing) to *every* clock wire for crosstalk, slew,
variation and EM robustness — and pays for it in switched capacitance,
i.e. clock power.  Smart NDR assigns rules *per wire*: only where the
analysis says robustness is actually bought.

Public surface:

* :class:`~repro.core.targets.RobustnessTargets` — the constraint set
  every policy must meet (delta-delay, 3-sigma skew, slew, EM).
* :func:`~repro.core.policies.apply_uniform_policy` and friends — the
  baselines (ALL-NDR, NO-NDR, width-only, spacing-only, random).
* :class:`~repro.core.optimizer.SmartNdrOptimizer` — the
  sensitivity-guided greedy assignment (the paper's method).
* :func:`~repro.core.flow.run_flow` — one-call end-to-end flow
  producing a fully analyzed :class:`~repro.core.flow.FlowResult`.
"""

from repro.core.targets import RobustnessTargets
from repro.core.evaluation import (AnalysisBundle, analyze_all,
                                   targets_from_reference)
from repro.core.sensitivity import RuleSensitivity, rule_sensitivities
from repro.core.policies import (Policy, apply_uniform_policy,
                                 apply_random_policy)
from repro.core.optimizer import SmartNdrOptimizer, OptimizeResult
from repro.core.flow import FlowResult, run_flow, build_physical_design
from repro.core.multiclock import (ClockDomain, DomainResult,
                                   MultiClockResult, run_multiclock_flow,
                                   split_domains)

__all__ = [
    "RobustnessTargets",
    "AnalysisBundle",
    "analyze_all",
    "targets_from_reference",
    "RuleSensitivity",
    "rule_sensitivities",
    "Policy",
    "apply_uniform_policy",
    "apply_random_policy",
    "SmartNdrOptimizer",
    "OptimizeResult",
    "FlowResult",
    "run_flow",
    "build_physical_design",
    "ClockDomain",
    "DomainResult",
    "MultiClockResult",
    "run_multiclock_flow",
    "split_domains",
]
