"""The design corpus: one constant table of named families.

Four families ship with the package, in this order (:data:`FAMILIES`):

* ``synthetic`` — the legacy ``ckt*`` suite (Table 1) plus the macro
  variants and the scaling rungs.  Every spec pins ``seed_salt`` to
  its historical name, so these regenerate **bit-identically** to the
  pre-corpus generator (the golden-hash tests enforce it).
* ``hierarchical`` — center-driven H-tree SoCs: sinks cluster in the
  leaf regions of a recursive-center split, with a blockage-heavy
  variant.
* ``gated`` — multi-domain SoCs with gated (quiet) secondary domains
  and non-uniform aggressor traffic.
* ``imported`` — DEF-lite JSON descriptions shipped under
  ``repro/designs/data`` and built through the validating importer.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.designs.spec import DesignSpec


@dataclass(frozen=True)
class DesignFamily:
    """One named, documented group of corpus designs."""

    name: str
    description: str
    specs: tuple[DesignSpec, ...]

    def __post_init__(self) -> None:
        if not self.specs:
            raise ValueError(f"family {self.name!r} has no specs")


#: The six-design suite every table iterates over (Table 1 reports it).
_SUITE: tuple[DesignSpec, ...] = (
    DesignSpec("ckt64", n_sinks=64, die_edge=280.0, seed=11,
               seed_salt="ckt64"),
    DesignSpec("ckt128", n_sinks=128, die_edge=400.0, seed=12,
               seed_salt="ckt128"),
    DesignSpec("ckt256", n_sinks=256, die_edge=560.0, seed=13,
               seed_salt="ckt256"),
    DesignSpec("ckt512", n_sinks=512, die_edge=800.0, seed=14,
               seed_salt="ckt512"),
    DesignSpec("ckt1024", n_sinks=1024, die_edge=1120.0, seed=15,
               seed_salt="ckt1024"),
    DesignSpec("ckt2048", n_sinks=2048, die_edge=1600.0, seed=16,
               seed_salt="ckt2048"),
)

#: Macro variants plus the scaling-benchmark rungs above Table-1 sizes.
_EXTRA: tuple[DesignSpec, ...] = (
    DesignSpec("ckt256m", n_sinks=256, die_edge=560.0, seed=13,
               n_blockages=3, seed_salt="ckt256m"),
    DesignSpec("ckt512m", n_sinks=512, die_edge=800.0, seed=14,
               n_blockages=4, seed_salt="ckt512m"),
    DesignSpec("ckt4096", n_sinks=4096, die_edge=2240.0, seed=17,
               seed_salt="ckt4096"),
    DesignSpec("ckt16384", n_sinks=16384, die_edge=4480.0, seed=19,
               seed_salt="ckt16384"),
)

_HIERARCHICAL: tuple[DesignSpec, ...] = (
    DesignSpec("soc_h64", n_sinks=64, die_edge=280.0, seed=21,
               seed_salt="soc_h64", generator="htree", htree_levels=2),
    DesignSpec("soc_h256", n_sinks=256, die_edge=560.0, seed=22,
               seed_salt="soc_h256", generator="htree", htree_levels=3),
    DesignSpec("soc_h256m", n_sinks=256, die_edge=560.0, seed=23,
               seed_salt="soc_h256m", generator="htree", htree_levels=3,
               n_blockages=4, blockage_fraction=0.14),
    DesignSpec("soc_h1024", n_sinks=1024, die_edge=1120.0, seed=24,
               seed_salt="soc_h1024", generator="htree", htree_levels=4),
)

_GATED: tuple[DesignSpec, ...] = (
    DesignSpec("soc_g128", n_sinks=128, die_edge=400.0, seed=31,
               seed_salt="soc_g128", generator="htree", htree_levels=2,
               n_domains=2, gate_enable=0.35, traffic="hotspot"),
    DesignSpec("soc_g256", n_sinks=256, die_edge=560.0, seed=32,
               seed_salt="soc_g256", generator="htree", htree_levels=3,
               n_domains=4, gate_enable=0.25, traffic="edge",
               n_blockages=3, blockage_fraction=0.14,
               aggressor_windows=True),
)

_IMPORTED: tuple[DesignSpec, ...] = (
    DesignSpec("imp_uart", n_sinks=48, die_edge=240.0,
               seed_salt="imp_uart", generator="imported",
               source="imp_uart.json"),
    DesignSpec("imp_noc", n_sinks=96, die_edge=360.0,
               seed_salt="imp_noc", generator="imported",
               source="imp_noc.json"),
)


#: The whole corpus, in listing order; design names are corpus-unique.
FAMILIES: tuple[DesignFamily, ...] = (
    DesignFamily(
        "synthetic",
        "legacy ckt* suite: clustered sinks, flat aggressor traffic",
        _SUITE + _EXTRA),
    DesignFamily(
        "hierarchical",
        "center-driven H-tree SoCs with block-local subtrees",
        _HIERARCHICAL),
    DesignFamily(
        "gated",
        "multi-domain SoCs with gated quiet domains and hotspot/edge traffic",
        _GATED),
    DesignFamily(
        "imported",
        "DEF-lite JSON floorplans built through the validating importer",
        _IMPORTED),
)


def benchmark_suite() -> tuple[DesignSpec, ...]:
    """The standard six-design suite used by all experiments."""
    return _SUITE
