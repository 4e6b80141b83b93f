"""Metal layer stack with geometry and RC coefficients.

The capacitance model follows the functional form foundry RC tech files
tabulate (and that analytical models like Sakurai-Tamaru fit):

* area (parallel-plate to the layers below/above):  ``c_area * width``
  per unit length,
* fringe (line edge to ground):                     ``c_fringe`` per edge
  per unit length,
* coupling (to a same-layer neighbor at spacing s): ``k_couple / s`` per
  unit length per side, saturating to a far-field fringe term
  ``c_fringe_far`` when no neighbor is within ``coupling_reach``.

All coefficients live in the library's coherent units (um, fF, kOhm; see
:mod:`repro.units`), so extraction is pure arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.units import ohm_per_um


@dataclass(frozen=True)
class MetalLayer:
    """One routable metal layer.

    Attributes
    ----------
    name:
        Layer name, e.g. ``"M3"``.
    index:
        1-based position in the stack (M1 is 1).
    direction:
        Preferred routing direction, ``"H"`` or ``"V"``.
    min_width:
        Minimum (default) drawn width in um.
    pitch:
        Track pitch in um at default width/spacing.
    min_spacing:
        Minimum (default) spacing in um.
    thickness:
        Metal thickness in um (for EM current density).
    sheet_res:
        Sheet resistance in ohm/square.
    c_area:
        Area capacitance coefficient in fF/um^2 (multiplied by width to
        get fF/um of length).
    c_fringe:
        Fringe capacitance per edge in fF/um of length.
    k_couple:
        Coupling coefficient: lateral capacitance per um of parallel
        run is ``k_couple / spacing**coupling_expo``.
    coupling_reach:
        Maximum same-layer distance (um) at which a neighbor still
        couples; beyond it the edge sees the far-field fringe term.
    c_fringe_far:
        Far-field (no-neighbor) edge capacitance in fF/um.
    em_jmax:
        Maximum allowed RMS current density, uA/um^2.
    coupling_expo:
        Spacing exponent of the lateral-capacitance model.  Parallel
        plates alone give 1.0, but the grounded layers above and below
        absorb field lines as spacing grows, so extracted coupling
        falls off super-linearly; 1.8 matches the 45 nm-class shape.
    """

    name: str
    index: int
    direction: str
    min_width: float
    pitch: float
    min_spacing: float
    thickness: float
    sheet_res: float
    c_area: float
    c_fringe: float
    k_couple: float
    coupling_reach: float
    c_fringe_far: float
    em_jmax: float
    coupling_expo: float = 1.8

    def __post_init__(self) -> None:
        if self.direction not in ("H", "V"):
            raise ValueError(f"layer direction must be 'H' or 'V', got {self.direction!r}")
        for field_name in ("min_width", "pitch", "min_spacing", "thickness", "sheet_res"):
            if getattr(self, field_name) <= 0.0:
                raise ValueError(f"{self.name}.{field_name} must be positive")

    def resistance_per_um(self, width: float) -> float:
        """Wire resistance per um of length at the given drawn width (kOhm/um)."""
        return ohm_per_um(self.sheet_res, width)

    def ground_cap_per_um(self, width: float) -> float:
        """Width-dependent capacitance to ground planes, fF/um (no coupling)."""
        if width <= 0.0:
            raise ValueError(f"wire width must be positive, got {width}")
        return self.c_area * width

    def coupling_cap_per_um(self, spacing: float) -> float:
        """Lateral capacitance to one same-layer neighbor at ``spacing``, fF/um.

        Returns the far-field fringe term when the neighbor is out of
        coupling reach (or ``spacing`` is ``inf``), so callers can use
        this uniformly for "neighbor" and "no neighbor" edges.
        """
        if spacing <= 0.0:
            raise ValueError(f"spacing must be positive, got {spacing}")
        if spacing >= self.coupling_reach:
            return self.c_fringe_far
        # Super-linear falloff with spacing (ground planes absorb the
        # field), floored so it never drops below the far-field term
        # inside the reach window.
        return max(self.k_couple / spacing ** self.coupling_expo,
                   self.c_fringe_far)

    def isolated_cap_per_um(self, width: float) -> float:
        """Total cap/um of a wire with no neighbors on either side."""
        return self.ground_cap_per_um(width) + 2.0 * (self.c_fringe + self.c_fringe_far)


@dataclass(frozen=True)
class MetalStack:
    """An ordered collection of metal layers."""

    layers: tuple[MetalLayer, ...]

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("metal stack must contain at least one layer")
        indices = [layer.index for layer in self.layers]
        if indices != sorted(indices) or len(set(indices)) != len(indices):
            raise ValueError("layer indices must be strictly increasing")

    def __iter__(self) -> Iterator[MetalLayer]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    def by_name(self, name: str) -> MetalLayer:
        """The layer named ``name`` (KeyError if absent)."""
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise KeyError(f"no layer named {name!r}")


def default_metal_stack() -> MetalStack:
    """A 45 nm-class 6-layer stack with published-magnitude coefficients.

    Coefficients are calibrated so an isolated minimum-width intermediate
    wire lands near 0.2 fF/um total capacitance and ~3 ohm/um resistance,
    which matches the per-um values reported for 45 nm copper interconnect.
    """
    # k_couple values are calibrated so lateral cap at *minimum* spacing
    # matches the linear model's published per-um magnitudes (0.17 fF/um
    # intermediate, 0.11 fF/um semi-global), with the 1.8-exponent
    # falloff taking over beyond it.
    def intermediate(name: str, index: int, direction: str,
                     min_width: float, pitch: float,
                     min_spacing: float) -> MetalLayer:
        return MetalLayer(name, index, direction, min_width, pitch,
                          min_spacing, thickness=0.14, sheet_res=0.25,
                          c_area=0.60, c_fringe=0.040, k_couple=0.00143,
                          coupling_reach=0.50, c_fringe_far=0.025,
                          em_jmax=8000.0)

    def semi_global(name: str, index: int, direction: str,
                    min_width: float, pitch: float,
                    min_spacing: float) -> MetalLayer:
        return MetalLayer(name, index, direction, min_width, pitch,
                          min_spacing, thickness=0.28, sheet_res=0.12,
                          c_area=0.55, c_fringe=0.045, k_couple=0.00331,
                          coupling_reach=0.80, c_fringe_far=0.028,
                          em_jmax=10000.0)

    return MetalStack(
        layers=(
            MetalLayer("M1", 1, "H", 0.065, 0.13, 0.065, 0.12, 0.38,
                       0.65, 0.038, 0.00112, 0.45, 0.024, 5000.0),
            intermediate("M2", 2, "V", 0.070, 0.14, 0.070),
            intermediate("M3", 3, "H", 0.070, 0.14, 0.070),
            semi_global("M4", 4, "V", 0.140, 0.28, 0.140),
            semi_global("M5", 5, "H", 0.140, 0.28, 0.140),
            MetalLayer("M6", 6, "V", 0.400, 0.80, 0.400, 0.80, 0.04,
                       0.50, 0.050, 0.00960, 2.00, 0.030, 20000.0),
        )
    )
