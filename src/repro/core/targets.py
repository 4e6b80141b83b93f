"""The robustness constraint set rule assignment must satisfy.

These are the four classic reasons clock wires get NDRs; a rule
assignment is *feasible* when all four hold:

* worst per-sink crosstalk delta delay <= ``max_worst_delta`` (ps),
* Monte-Carlo mu+3sigma skew <= ``max_skew_3sigma`` (ps),
* worst sink slew <= ``max_slew`` (ps),
* every wire's EM current-density utilisation <= ``max_em_util``.

Budgets default to fractions of the clock period, the way a real clock
spec is written; :meth:`RobustnessTargets.for_period` fills them in.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class RobustnessTargets:
    """Constraint budgets for rule assignment.

    Attributes
    ----------
    max_worst_delta:
        Worst-case crosstalk delta delay at any sink, ps.
    max_skew_3sigma:
        mu + 3 sigma of the Monte-Carlo skew distribution, ps.
    max_slew:
        Worst sink transition time, ps.
    max_em_util:
        Current-density utilisation limit (1.0 = exactly at Jmax).
    mc_samples / mc_seed:
        Monte-Carlo settings used when verifying the 3-sigma budget.
    alignment:
        Aggressor alignment probability for expected-delta reporting.
    """

    max_worst_delta: float
    max_skew_3sigma: float
    max_slew: float
    max_em_util: float = 1.0
    mc_samples: int = 200
    mc_seed: int = 17
    alignment: float = 0.5

    def __post_init__(self) -> None:
        for name in ("max_worst_delta", "max_skew_3sigma", "max_slew",
                     "max_em_util"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.mc_samples < 2:
            raise ValueError("mc_samples must be >= 2")

    @classmethod
    def for_period(cls, clock_period: float, max_slew: float,
                   delta_fraction: float = 0.005,
                   skew_fraction: float = 0.008) -> "RobustnessTargets":
        """Budgets as fractions of the clock period.

        Defaults: delta delay 0.5% and 3-sigma skew 0.8% of the period —
        the tight end of what a 1 GHz clock spec demands.
        """
        if clock_period <= 0.0:
            raise ValueError("clock period must be positive")
        return cls(
            max_worst_delta=delta_fraction * clock_period,
            max_skew_3sigma=skew_fraction * clock_period,
            max_slew=max_slew,
        )

    @classmethod
    def from_reference(cls, worst_delta: float, skew_3sigma: float,
                       max_slew: float, slack: float = 0.15,
                       **kwargs) -> "RobustnessTargets":
        """Budgets pegged to a reference implementation's achieved metrics.

        This is the paper's operational definition of "as robust as
        all-NDR": run the all-NDR reference, measure its delta delay
        and 3-sigma skew, and require every policy to land within
        ``slack`` (default 15%) of those numbers.
        """
        if slack < 0.0:
            raise ValueError("slack must be non-negative")
        return cls(
            max_worst_delta=worst_delta * (1.0 + slack),
            max_skew_3sigma=skew_3sigma * (1.0 + slack),
            max_slew=max_slew,
            **kwargs,
        )

    def violations(self, worst_delta: float, skew_3sigma: float,
                   worst_slew: float, em_util: float) -> dict[str, float]:
        """Positive excess per violated constraint (empty when feasible).

        Takes the four measured metrics rather than an analysis bundle,
        so a cached cell record is judged by exactly the comparisons a
        live flow is.
        """
        out: dict[str, float] = {}
        dd = worst_delta - self.max_worst_delta
        if dd > 0.0:
            out["delta_delay"] = dd
        sigma = skew_3sigma - self.max_skew_3sigma
        if sigma > 0.0:
            out["skew_3sigma"] = sigma
        slew = worst_slew - self.max_slew
        if slew > 0.0:
            out["slew"] = slew
        em = em_util - self.max_em_util
        if em > 0.0:
            out["em"] = em
        return out

    def relaxed(self, factor: float) -> "RobustnessTargets":
        """A copy with delta/skew budgets scaled by ``factor`` (sweeps)."""
        if factor <= 0.0:
            raise ValueError("factor must be positive")
        return replace(self,
                       max_worst_delta=self.max_worst_delta * factor,
                       max_skew_3sigma=self.max_skew_3sigma * factor)
