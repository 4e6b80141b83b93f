"""Corpus lookups: named design families and corpus selectors.

A *family* is a named, documented tuple of
:class:`~repro.designs.spec.DesignSpec` — the unit the suite and the
CLI select over.  The families are the constant table
:data:`repro.designs.corpus.FAMILIES`; this module indexes it once, at
import, and every lookup reads that table.

Selectors accepted by :func:`resolve_selectors`:

* an exact design name — ``"ckt256"``;
* a glob over design names — ``"ckt*"``, ``"soc_h?"``;
* a family — ``"family:hierarchical"``, or ``"family:*"`` for the
  whole corpus;
* a design-JSON path (anything ending in ``.json``), passed through
  untouched for :func:`repro.runner.matrix.resolve_design`.
"""

from __future__ import annotations

import difflib
import fnmatch
from typing import Iterable, Iterator

from repro.designs.corpus import FAMILIES, DesignFamily
from repro.designs.spec import DesignSpec

#: Design name -> spec, family-ordered; built once from the table.
_BY_NAME: dict[str, DesignSpec] = {
    spec.name: spec for fam in FAMILIES for spec in fam.specs}


def families() -> tuple[DesignFamily, ...]:
    """Every family, in table order."""
    return FAMILIES


def family(name: str) -> DesignFamily:
    """Look up one family by name."""
    for fam in FAMILIES:
        if fam.name == name:
            return fam
    raise KeyError(f"no design family named {name!r}; available: "
                   f"{sorted(fam.name for fam in FAMILIES)}")


def iter_specs() -> Iterator[DesignSpec]:
    """Every corpus spec, family-ordered."""
    for fam in FAMILIES:
        yield from fam.specs


def spec_names() -> tuple[str, ...]:
    """Every corpus design name, family-ordered."""
    return tuple(_BY_NAME)


def family_of(design_name: str) -> str:
    """The family a corpus design belongs to."""
    for fam in FAMILIES:
        if any(s.name == design_name for s in fam.specs):
            return fam.name
    raise KeyError(f"design {design_name!r} is not registered")


def spec_by_name(name: str) -> DesignSpec:
    """Look up a corpus spec by design name.

    An unknown name raises a KeyError that lists close matches and the
    available families, so a typo'd ``ckt258`` points at ``ckt256``
    instead of a bare miss.
    """
    spec = _BY_NAME.get(name)
    if spec is not None:
        return spec
    close = difflib.get_close_matches(name, list(_BY_NAME), n=3, cutoff=0.5)
    lines = [f"no design named {name!r}"]
    if close:
        lines.append(f"did you mean: {', '.join(close)}?")
    lines.append("families: " + "; ".join(
        f"{fam.name} ({', '.join(s.name for s in fam.specs)})"
        for fam in FAMILIES))
    raise KeyError(". ".join(lines))


def resolve_selectors(selectors: Iterable[str]) -> tuple[str, ...]:
    """Expand corpus selectors into concrete design names.

    Order follows the selector list, then table order within each
    selector; duplicates are dropped (first win).  A selector matching
    nothing is an error — silent empties hide typos.
    """
    out: list[str] = []
    seen: set[str] = set()

    def add(name: str) -> None:
        if name not in seen:
            seen.add(name)
            out.append(name)

    for selector in selectors:
        if selector.endswith(".json"):
            add(selector)
            continue
        if selector.startswith("family:"):
            pattern = selector[len("family:"):]
            matched = [f for f in FAMILIES
                       if fnmatch.fnmatchcase(f.name, pattern)]
            if not matched:
                raise KeyError(f"selector {selector!r} matches no family; "
                               f"available: "
                               f"{sorted(fam.name for fam in FAMILIES)}")
            for fam in matched:
                for spec in fam.specs:
                    add(spec.name)
            continue
        if any(ch in selector for ch in "*?["):
            matched_names = [n for n in _BY_NAME
                             if fnmatch.fnmatchcase(n, selector)]
            if not matched_names:
                raise KeyError(f"selector {selector!r} matches no "
                               f"registered design")
            for n in matched_names:
                add(n)
            continue
        # An exact name: let spec_by_name produce the helpful error.
        add(spec_by_name(selector).name)
    return tuple(out)
