"""Baseline rule-assignment policies.

These are the comparison points every experiment reports against:

* ``NO_NDR``  — default rule everywhere: cheapest, least robust.
* ``ALL_NDR`` — full 2x/2x rule everywhere: the industry default for
  clock routing, and the robustness reference the smart policies must
  match.
* ``WIDTH_ONLY`` / ``SPACE_ONLY`` — uniform single-axis rules, the
  ablation points separating R-driven from coupling-driven effects.
* ``RANDOM`` — a random fraction of wires upgraded to full NDR: the
  sanity baseline showing that *where* the NDRs go matters, not just
  how many there are.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.route.router import RoutingResult
from repro.tech.ndr import RoutingRule, rule_by_name


class Policy(str, enum.Enum):
    """Named rule-assignment strategies used across experiments."""

    NO_NDR = "no-ndr"
    ALL_NDR = "all-ndr"
    WIDTH_ONLY = "width-only"
    SPACE_ONLY = "space-only"
    RANDOM = "random"
    SMART = "smart"      # sensitivity-guided greedy (the paper's method)
    SMART_SHIELD = "smart-shield"  # greedy with grounded shields enabled

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    @property
    def reads_budgets(self) -> bool:
        """True when the rule assignment reads the robustness budgets.

        Only the optimizing policies do.  A uniform or random
        assignment, and so its whole flow, measures the same under any
        budgets; only the verdict on those measurements changes.
        """
        return self in (Policy.SMART, Policy.SMART_SHIELD)


_UNIFORM_RULE: dict[Policy, str] = {
    Policy.NO_NDR: "W1S1",
    Policy.ALL_NDR: "W2S2",
    Policy.WIDTH_ONLY: "W2S1",
    Policy.SPACE_ONLY: "W1S2",
}


def uniform_rule_of(policy: Policy) -> RoutingRule:
    """The rule a uniform policy stamps on every wire."""
    try:
        return rule_by_name(_UNIFORM_RULE[policy])
    except KeyError:
        raise ValueError(f"{policy} is not a uniform policy") from None


def apply_uniform_policy(routing: RoutingResult, policy: Policy) -> None:
    """Stamp a uniform policy's rule on every clock wire, in place."""
    rule = uniform_rule_of(policy)
    for wire in routing.clock_wires:
        routing.assign_rule(wire.wire_id, rule)


def apply_random_policy(routing: RoutingResult, fraction: float,
                        seed: int = 0) -> list[int]:
    """Upgrade a random ``fraction`` of clock wires to full NDR.

    Remaining wires get the default rule.  Returns the upgraded wire
    ids (for reporting).
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    rng = np.random.default_rng(seed)
    full = rule_by_name("W2S2")
    default = rule_by_name("W1S1")
    upgraded: list[int] = []
    for wire in routing.clock_wires:
        if rng.random() < fraction:
            routing.assign_rule(wire.wire_id, full)
            upgraded.append(wire.wire_id)
        else:
            routing.assign_rule(wire.wire_id, default)
    return upgraded
