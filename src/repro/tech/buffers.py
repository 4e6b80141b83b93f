"""Clock buffer library with a linear (switch-level) delay/slew model.

Each buffer is modeled the way cell characterization collapses to first
order:

* stage delay      ``d = d_intrinsic + r_drive * C_load``
* output slew      ``s = s_intrinsic + k_slew * r_drive * C_load``
* input capacitance, internal (short-circuit + parasitic) energy per
  switching event, and leakage power.

The default library is a geometric size sweep (X1..X16) with constant
``r_drive * c_in`` product, mirroring how real drive strengths scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class BufferCell:
    """One clock buffer cell.

    Attributes
    ----------
    name:
        Cell name, e.g. ``"CLKBUF_X4"``.
    size:
        Relative drive strength (X-factor).
    r_drive:
        Effective output resistance, kOhm.
    c_in:
        Input pin capacitance, fF.
    d_intrinsic:
        Load-independent delay, ps.
    s_intrinsic:
        Load-independent output slew, ps.
    k_slew:
        Slew sensitivity to ``r_drive * C_load`` (dimensionless).
    e_internal:
        Internal energy per output transition pair, fJ.
    p_leak:
        Leakage power, uW.
    max_cap:
        Maximum load capacitance the cell may legally drive, fF.
    """

    name: str
    size: float
    r_drive: float
    c_in: float
    d_intrinsic: float
    s_intrinsic: float
    k_slew: float
    e_internal: float
    p_leak: float
    max_cap: float

    def delay(self, c_load: float) -> float:
        """Stage delay in ps driving ``c_load`` fF."""
        if c_load < 0.0:
            raise ValueError(f"load capacitance must be non-negative, got {c_load}")
        return self.d_intrinsic + self.r_drive * c_load

    def output_slew(self, c_load: float) -> float:
        """Output transition time in ps driving ``c_load`` fF."""
        if c_load < 0.0:
            raise ValueError(f"load capacitance must be non-negative, got {c_load}")
        return self.s_intrinsic + self.k_slew * self.r_drive * c_load


@dataclass(frozen=True)
class BufferLibrary:
    """An ordered (smallest-to-largest) collection of buffer cells."""

    cells: tuple[BufferCell, ...]

    def __post_init__(self) -> None:
        if not self.cells:
            raise ValueError("buffer library must contain at least one cell")
        sizes = [cell.size for cell in self.cells]
        if sizes != sorted(sizes):
            raise ValueError("buffer cells must be ordered by increasing size")

    def __iter__(self) -> Iterator[BufferCell]:
        return iter(self.cells)

    def __len__(self) -> int:
        return len(self.cells)

    def by_name(self, name: str) -> BufferCell:
        """The cell named ``name`` (KeyError if absent)."""
        for cell in self.cells:
            if cell.name == name:
                return cell
        raise KeyError(f"no buffer named {name!r}")

    @property
    def smallest(self) -> BufferCell:
        return self.cells[0]

    @property
    def largest(self) -> BufferCell:
        return self.cells[-1]


def default_buffer_library() -> BufferLibrary:
    """A 45 nm-class clock buffer sweep, X1..X16.

    The X1 cell is calibrated near published 45 nm inverter-pair values
    (r ~ 2.2 kOhm, c_in ~ 1.3 fF, intrinsic ~ 18 ps); larger sizes scale
    resistance down and capacitance up linearly.
    """
    cells: list[BufferCell] = []
    for size in (1, 2, 4, 8, 16):
        cells.append(
            BufferCell(
                name=f"CLKBUF_X{size}",
                size=float(size),
                r_drive=2.2 / size,
                c_in=1.3 * size,
                d_intrinsic=18.0 + 1.0 * (size ** 0.5),
                s_intrinsic=12.0,
                k_slew=0.9,
                e_internal=0.55 * size,
                p_leak=0.012 * size,
                max_cap=45.0 * size,
            )
        )
    return BufferLibrary(cells=tuple(cells))
