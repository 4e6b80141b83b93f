"""Nets: one driver pin, many sink pins, plus switching activity."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.netlist.cell import Pin, PinDirection


class NetKind(str, enum.Enum):
    """Net class: the clock net, or a signal (crosstalk-aggressor) net."""

    CLOCK = "clock"
    SIGNAL = "signal"


@dataclass
class Net:
    """A net connecting one driver to one or more sinks.

    Attributes
    ----------
    name:
        Net name, unique within a design.
    kind:
        Clock or signal; signal nets act as crosstalk aggressors.
    activity:
        Toggle probability per clock cycle.  Clock nets toggle every
        cycle (activity 1.0 by convention); typical signal nets toggle
        far less often.
    window:
        Switching window within the clock cycle, ``(start, end)`` in ps:
        when the net transitions, the transition lands in this window.
        ``None`` means "anywhere in the cycle" — the conservative
        assumption signoff uses before timing windows are known.
    """

    name: str
    kind: NetKind
    activity: float = 0.15
    window: Optional[tuple[float, float]] = None
    driver: Optional[Pin] = None
    sinks: list[Pin] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not 0.0 <= self.activity <= 1.0:
            raise ValueError(f"activity must be in [0, 1], got {self.activity}")
        if self.window is not None:
            start, end = self.window
            if end <= start or start < 0.0:
                raise ValueError(f"bad switching window {self.window}")

    def connect_driver(self, pin: Pin) -> None:
        """Attach the single driving output pin."""
        if pin.direction != PinDirection.OUTPUT:
            raise ValueError(f"driver pin {pin.full_name} must be an output")
        if self.driver is not None:
            raise ValueError(f"net {self.name} already has a driver")
        self.driver = pin
        pin.net = self

    def connect_sink(self, pin: Pin) -> None:
        """Attach one more receiving input pin."""
        if pin.direction != PinDirection.INPUT:
            raise ValueError(f"sink pin {pin.full_name} must be an input")
        self.sinks.append(pin)
        pin.net = self

    @property
    def pins(self) -> list[Pin]:
        result = [] if self.driver is None else [self.driver]
        return result + list(self.sinks)

    def __repr__(self) -> str:
        return (f"Net({self.name!r}, {self.kind.value}, "
                f"{len(self.sinks)} sinks)")
