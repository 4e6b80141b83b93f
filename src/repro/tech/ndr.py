"""Non-default routing rules (NDRs).

A routing rule scales the default width and spacing of the layer a wire
is routed on.  The canonical clock-routing rule set — and the decision
space of the paper's optimizer — is:

=======  ======  ========  ==========================================
Name     Width   Spacing   Intuition
=======  ======  ========  ==========================================
W1S1     1x      1x        default signal rule; cheapest, least robust
W2S1     2x      1x        width-only: lower R (slew/EM), more area cap
W1S2     1x      2x        space-only: lower coupling cap, extra track
W2S2     2x      2x        full NDR; the industry default for clocks
W4S2     4x      2x        trunk rule: for top-level wires whose EM
                           current even 2x width cannot absorb
=======  ======  ========  ==========================================

Rules are ordered by a partial "robustness" relation: W4S2 dominates all,
W1S1 is dominated by all.  The optimizer upgrades along this lattice.
The uniform ALL-NDR baseline uses W2S2 (industry practice); W4S2 exists
because per-wire assignment can reach for it exactly where needed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:  # imported for annotations only; no runtime dependency
    from repro.tech.layers import MetalLayer


class RuleName(str, enum.Enum):
    """Canonical names of the four routing rules."""

    W1S1 = "W1S1"
    W2S1 = "W2S1"
    W1S2 = "W1S2"
    W2S2 = "W2S2"
    W4S2 = "W4S2"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True, order=False)
class RoutingRule:
    """A (width multiplier, spacing multiplier) pair over the layer default."""

    name: RuleName
    width_mult: float
    space_mult: float

    def __post_init__(self) -> None:
        if self.width_mult < 1.0 or self.space_mult < 1.0:
            raise ValueError("rule multipliers must be >= 1 (rules only upgrade)")

    @property
    def is_default(self) -> bool:
        # Exact multiplier identity is deliberate: rules are constructed
        # from the literal lattice values, never from arithmetic.
        return self.width_mult == 1.0 and self.space_mult == 1.0  # static: ok[U001] exact identity multipliers

    @property
    def track_span(self) -> int:
        """How many default routing tracks this rule occupies.

        A default wire occupies 1 track.  Doubling the width consumes
        roughly one extra track; doubling the spacing keeps one extra
        track clear on each side.  This integer is what the track router
        charges against capacity.
        """
        extra_width = int(round(self.width_mult - 1.0))
        extra_space = int(round(self.space_mult - 1.0))
        return 1 + extra_width + extra_space

    def width_on(self, layer: "MetalLayer") -> float:
        """Drawn width (um) on ``layer`` under this rule."""
        return layer.min_width * self.width_mult

    def spacing_on(self, layer: "MetalLayer") -> float:
        """Guaranteed same-layer spacing (um) on ``layer`` under this rule."""
        return layer.min_spacing * self.space_mult

    def dominates(self, other: "RoutingRule") -> bool:
        """True if this rule is at least as robust as ``other`` in both axes."""
        return self.width_mult >= other.width_mult and self.space_mult >= other.space_mult


W1S1 = RoutingRule(RuleName.W1S1, 1.0, 1.0)
W2S1 = RoutingRule(RuleName.W2S1, 2.0, 1.0)
W1S2 = RoutingRule(RuleName.W1S2, 1.0, 2.0)
W2S2 = RoutingRule(RuleName.W2S2, 2.0, 2.0)
W4S2 = RoutingRule(RuleName.W4S2, 4.0, 2.0)

#: The full decision space, ordered from cheapest to most robust.
RULE_SET: tuple[RoutingRule, ...] = (W1S1, W2S1, W1S2, W2S2, W4S2)

_BY_NAME: dict[RuleName, RoutingRule] = {rule.name: rule
                                         for rule in RULE_SET}
_BY_STR: dict[str, RoutingRule] = {rule.name.value: rule
                                   for rule in RULE_SET}


def rule_by_name(name: Union[RuleName, str]) -> RoutingRule:
    """Look up a rule by :class:`RuleName` or its string value."""
    if isinstance(name, RuleName):
        return _BY_NAME[name]
    try:
        return _BY_STR[str(name)]
    except KeyError:
        raise KeyError(f"unknown routing rule {name!r}; valid: {sorted(_BY_STR)}") from None
