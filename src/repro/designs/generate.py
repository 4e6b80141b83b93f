"""Spec -> placed design: the generator dispatcher.

Each :class:`~repro.designs.spec.DesignSpec` names its generator;
:func:`generate_design` seeds the RNG from the spec (salt from
``seed_salt``, never from the display name of a corpus spec),
builds the empty die, and hands off to its generator function.  ``"imported"`` is special: the design comes from the spec's
DEF-lite source file instead of a seeded construction.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.designs.soc import generate_htree
from repro.designs.spec import DesignSpec, resolve_source, seeded_rng
from repro.designs.synthetic import generate_clustered
from repro.geom.rect import Rect
from repro.netlist.design import Design

#: A generator populates the prepared (die-only) design in place.
GeneratorFn = Callable[[DesignSpec, np.random.Generator, Design], None]

_GENERATORS: dict[str, GeneratorFn] = {
    "clustered": generate_clustered,
    "htree": generate_htree,
}


def generator_names() -> tuple[str, ...]:
    """Every usable ``DesignSpec.generator`` value, sorted."""
    return tuple(sorted(_GENERATORS)) + ("imported",)


def generate_design(spec: DesignSpec) -> Design:
    """Deterministically build the placed design for ``spec``."""
    if spec.generator == "imported":
        from repro.designs.importer import import_design

        design = import_design(resolve_source(spec), name=spec.name)
        return design
    if spec.n_sinks < 1:
        raise ValueError("need at least one sink")
    try:
        generator = _GENERATORS[spec.generator]
    except KeyError:
        raise KeyError(f"spec {spec.name!r} names unknown generator "
                       f"{spec.generator!r}; "
                       f"registered: {generator_names()}") from None
    rng = seeded_rng(spec)
    die = Rect(0.0, 0.0, spec.die_edge, spec.die_edge)
    design = Design(name=spec.name, die=die, clock_period=spec.clock_period)
    generator(spec, rng, design)
    design.validate()
    return design
