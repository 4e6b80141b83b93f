"""Checks and the one runner every check family shares.

A *check* is one named rule: a function from a context to an iterable
of :class:`~repro.verify.diagnostics.Diagnostic` records, under a
stable rule id and a *kind*.  Each family is a constant tuple owned by
the code that runs it, over its own context type:

* :data:`repro.verify.FLOW_CHECKS` — the ``"drc"`` design-rule /
  electrical-rule checks (:mod:`repro.verify.drc`) and the
  ``"oracle"`` engine-coherence checks (:mod:`repro.verify.oracle`),
  over a :class:`~repro.verify.context.VerifyContext`;
* :data:`repro.analysis.STATIC_CHECKS` — the ``"static"``
  whole-program rules over a
  :class:`~repro.analysis.report.StaticContext`;
* :data:`repro.designs.importer.IMPORT_CHECKS` — the ``"import"``
  DEF-lite rules over an
  :class:`~repro.designs.importer.ImportContext`.

:func:`run_family` executes one family (or a selection of it) and
collects one :class:`~repro.verify.diagnostics.VerifyReport`.  A check
that raises is itself reported as an ERROR diagnostic under its own
rule id — a crashing checker must never mask the corruption it was
about to find.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generic, Iterable, Optional, TypeVar

from repro import obs
from repro.verify.diagnostics import Diagnostic, Severity, VerifyReport

#: The context type one check family reads.
C = TypeVar("C")


@dataclass(frozen=True)
class Check(Generic[C]):
    """One verifier rule: its id, its family and the function."""

    rule: str
    kind: str
    fn: Callable[[C], Iterable[Diagnostic]]

    @property
    def doc(self) -> str:
        """The function's first docstring line (``--list-checks`` text)."""
        lines = (self.fn.__doc__ or "").strip().splitlines()
        return lines[0] if lines else ""


def run_family(ctx: C, checks: Iterable[Check[C]],
               rules: Optional[Iterable[str]] = None) -> VerifyReport:
    """Run ``checks`` over ``ctx`` in rule-id order and collect the report.

    ``rules`` selects specific rule ids of ``checks``; an id the family
    does not hold raises :class:`KeyError`.
    """
    selected = sorted(checks, key=lambda c: c.rule)
    if rules is not None:
        wanted = set(rules)
        unknown = wanted - {c.rule for c in selected}
        if unknown:
            raise KeyError(f"unknown check rule(s): {sorted(unknown)}")
        selected = [c for c in selected if c.rule in wanted]
    report = VerifyReport()
    for check in selected:
        try:
            report.extend(list(check.fn(ctx)))
        except Exception as exc:  # noqa: BLE001 - reported, never masked
            report.extend([Diagnostic(
                rule=check.rule, severity=Severity.ERROR,
                message=f"checker crashed: {type(exc).__name__}: {exc}",
                hint="a crashing checker usually means the structure it "
                     "walks is itself corrupt")])
        report.checks_run.append(check.rule)
    obs.counter("verify.checks_run").inc(float(len(selected)))
    for diagnostic in report.diagnostics:
        obs.counter(
            f"verify.{diagnostic.severity.name.lower()}_diagnostics").inc()
    return report
