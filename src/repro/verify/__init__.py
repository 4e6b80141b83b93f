"""Static verification: clock-tree DRC/ERC linter + engine oracle.

The package checks already-built state — routed geometry, the RC
network, the incremental engine's caches — without re-running any
analysis, and reports typed :class:`Diagnostic` records.  A flow is
verified by exactly :data:`FLOW_CHECKS`: the ``drc`` tuple of
:mod:`repro.verify.drc` and the ``oracle`` tuple of
:mod:`repro.verify.oracle`.  See ``docs/VERIFY.md`` for the rule
catalogue, the severity policy, and how to add a check.

Entry points
------------
* ``repro lint`` (CLI) — run the checks on a flow and print/exit.
* :func:`verify_flow` / :func:`verify_physical` — library API.
* :func:`assert_flow_clean` — raise :class:`VerificationError` on any
  ERROR diagnostic (used by the ``REPRO_VERIFY_FLOWS`` test hook and
  the optimizer's ``verify_every`` debug mode).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from repro.verify.context import VerifyContext
from repro.verify.diagnostics import (Diagnostic, Severity,
                                      VerificationError, VerifyReport)
from repro.verify.drc import DRC_CHECKS
from repro.verify.oracle import ORACLE_CHECKS
from repro.verify.registry import Check, run_family

if TYPE_CHECKING:
    from repro.core.flow import FlowResult, PhysicalDesign

__all__ = [
    "Check",
    "Diagnostic",
    "FLOW_CHECKS",
    "FLOW_KINDS",
    "Severity",
    "VerificationError",
    "VerifyContext",
    "VerifyReport",
    "assert_flow_clean",
    "flow_checks",
    "run_checks",
    "verify_flow",
    "verify_physical",
]

#: Every check a flow is verified by.
FLOW_CHECKS: tuple[Check[VerifyContext], ...] = DRC_CHECKS + ORACLE_CHECKS

#: The kinds ``kinds=`` (``repro lint --checks``) selects among.
FLOW_KINDS: tuple[str, ...] = ("drc", "oracle")


def flow_checks(kinds: Optional[Iterable[str]]
                ) -> tuple[Check[VerifyContext], ...]:
    """The flow checks of ``kinds`` (all of them when None).

    A kind no flow check has raises :class:`ValueError`: a typo must
    not verify nothing and pass.
    """
    if kinds is None:
        return FLOW_CHECKS
    wanted = set(kinds)
    unknown = wanted - set(FLOW_KINDS)
    if unknown:
        raise ValueError(f"unknown check kind(s) {sorted(unknown)}; flow "
                         f"check kinds are {' and '.join(FLOW_KINDS)}")
    return tuple(c for c in FLOW_CHECKS if c.kind in wanted)


def run_checks(ctx: VerifyContext,
               rules: Optional[Iterable[str]] = None,
               kinds: Optional[Iterable[str]] = None) -> VerifyReport:
    """Run the flow checks over ``ctx`` and collect the report.

    ``rules`` selects specific rule ids; ``kinds`` selects whole
    families (``drc``, ``oracle``).  With neither, every flow check
    runs.
    """
    return run_family(ctx, flow_checks(kinds), rules)


def verify_flow(flow: "FlowResult",
                rules: Optional[Iterable[str]] = None,
                kinds: Optional[Iterable[str]] = None) -> VerifyReport:
    """Run checks over a finished flow result."""
    return run_checks(VerifyContext.from_flow(flow), rules=rules,
                      kinds=kinds)


def verify_physical(physical: "PhysicalDesign",
                    rules: Optional[Iterable[str]] = None,
                    kinds: Optional[Iterable[str]] = None) -> VerifyReport:
    """Run checks over a physical design (pre-optimization state)."""
    return run_checks(VerifyContext.from_physical(physical), rules=rules,
                      kinds=kinds)


def assert_flow_clean(flow: "FlowResult",
                      context: str = "flow result") -> VerifyReport:
    """Verify a flow and raise :class:`VerificationError` on any ERROR."""
    report = verify_flow(flow)
    if report.has_errors:
        raise VerificationError(report, context)
    return report
