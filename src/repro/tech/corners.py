"""Process corners for multi-corner timing.

A corner is a global multiplicative shift of the RC and gate-delay
baselines — the signoff abstraction sitting above the statistical
(Monte-Carlo) model: slow silicon has more resistive wires, denser
dielectric and slower transistors; fast silicon the opposite.
Magnitudes follow published slow/fast spreads for 45 nm-class
processes (10-25%).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ProcessCorner:
    """One corner's multiplicative scales over the typical baseline.

    Attributes
    ----------
    name:
        Corner name, e.g. ``"SS"``.
    wire_r:
        Wire resistance multiplier.
    wire_c:
        Wire capacitance multiplier (dielectric + geometry shift).
    buffer_delay:
        Buffer stage-delay multiplier (intrinsic and drive together).
    buffer_slew:
        Buffer output-slew multiplier.
    """

    name: str
    wire_r: float = 1.0
    wire_c: float = 1.0
    buffer_delay: float = 1.0
    buffer_slew: float = 1.0

    def __post_init__(self) -> None:
        for field_name in ("wire_r", "wire_c", "buffer_delay", "buffer_slew"):
            value = getattr(self, field_name)
            if not 0.3 <= value <= 3.0:
                raise ValueError(
                    f"{field_name}={value} outside the sane corner range")


TT = ProcessCorner("TT")
SS = ProcessCorner("SS", wire_r=1.15, wire_c=1.08,
                   buffer_delay=1.25, buffer_slew=1.20)
FF = ProcessCorner("FF", wire_r=0.88, wire_c=0.94,
                   buffer_delay=0.82, buffer_slew=0.85)

#: The standard signoff corner set.
DEFAULT_CORNERS: tuple[ProcessCorner, ...] = (SS, TT, FF)
