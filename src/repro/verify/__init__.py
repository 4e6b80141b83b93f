"""Static verification: clock-tree DRC/ERC linter + engine oracle.

The package checks already-built state — routed geometry, the RC
network, the incremental engine's caches — without re-running any
analysis, and reports typed :class:`Diagnostic` records through a
check registry.  See ``docs/VERIFY.md`` for the rule catalogue, the
severity policy, and how to add a check.

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
from repro.verify.registry import (Check, register, registered_checks,
                                   run_checks)

# Importing the check modules registers every rule; keep these after the
# registry import (they decorate into it).
from repro.verify import drc as _drc          # noqa: E402,F401
from repro.verify import oracle as _oracle    # noqa: E402,F401

if TYPE_CHECKING:
    from repro.core.flow import FlowResult, PhysicalDesign

__all__ = [
    "Check",
    "Diagnostic",
    "Severity",
    "VerificationError",
    "VerifyContext",
    "VerifyReport",
    "assert_flow_clean",
    "register",
    "registered_checks",
    "run_checks",
    "verify_flow",
    "verify_physical",
]


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
