"""The stable, typed entry points of the repro package.

Everything here is the *supported surface*: the CLI is a thin shell
over these functions, the examples import them, and their signatures
and result dataclasses change only with a deliberate version bump.
Internals (``repro.core``, ``repro.runner``, ...) remain importable but
may be reshaped between versions.

**Requests are the schema.**  Every entry point is described by a
typed, frozen request dataclass — :class:`FlowRequest`,
:class:`CompareRequest`, :class:`SweepRequest`, :class:`LintRequest` —
with exact JSON round-tripping (:meth:`to_dict` / :meth:`from_dict`,
schema-versioned, unknown fields rejected) and a stable
:meth:`content_key` for request-level deduplication.  The CLI and the
flow service (:mod:`repro.serve`) parse into the *same* objects, so
request defaults live in exactly one place: the dataclass fields.

* :func:`run_flow` — one policy flow on one design (re-exported from
  :mod:`repro.core`);
* :func:`run` — one matrix cell (:class:`FlowRequest`), returning a
  :class:`CellReport`;
* :func:`compare` — NO/ALL/SMART on one design, returning a
  :class:`CompareReport`;
* :func:`sweep` — budget-slack sweep of the smart policy, returning a
  :class:`SweepReport`;
* :func:`lint` — the DRC/ERC + engine-oracle verifier over one flow
  (the whole-program static analyzer is :mod:`repro.analysis`, which
  ``repro lint --static`` calls directly);
* :func:`execute` — dispatch any request object to its entry point;
* :func:`trace_report` — render a ``--trace`` JSONL file the way the
  ``repro trace`` subcommand does.

Each report dataclass is plain data (JSON-ready via
:func:`dataclasses.asdict` / :func:`report_to_dict`), so callers can
persist or post-process results without touching runner internals.
"""

from __future__ import annotations

import dataclasses
import numbers
from pathlib import Path
from typing import Any, ClassVar, Optional, Union

from repro.core import Policy, run_flow
from repro.runner import (FlowRunner, JobResult, JobSpec,
                          design_ref_fingerprint)
from repro.tech import Technology, default_technology
from repro.verify import VerifyReport, flow_checks, verify_flow

__all__ = [
    "CellReport",
    "CompareReport",
    "CompareRequest",
    "FlowRequest",
    "LintRequest",
    "Policy",
    "REQUEST_KINDS",
    "REQUEST_SCHEMA",
    "SweepPoint",
    "SweepReport",
    "SweepRequest",
    "compare",
    "execute",
    "lint",
    "report_to_dict",
    "request_field_default",
    "request_from_dict",
    "run",
    "run_flow",
    "sweep",
    "trace_report",
]

#: Bump when a request dataclass changes incompatibly (field renames,
#: semantic changes).  Folded into every request ``content_key``, so a
#: schema bump also invalidates coalescing/response caches.
REQUEST_SCHEMA = 3


# -- result dataclasses --------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class CellReport:
    """One executed matrix cell, flattened to plain data."""

    design: str
    policy: str
    slack: Optional[float]
    feasible: bool
    cached: bool
    runtime_s: float
    summary: dict[str, float]
    rule_histogram: dict[str, int]

    @property
    def power_uw(self) -> float:
        return self.summary["power_uw"]

    @property
    def upgraded_wires(self) -> int:
        """Wires assigned any non-default rule."""
        return (sum(self.rule_histogram.values())
                - self.rule_histogram.get("W1S1", 0))


@dataclasses.dataclass(frozen=True)
class CompareReport:
    """A policy comparison on one design at one slack."""

    design: str
    slack: float
    #: Smart-policy power saving vs the all-NDR reference, in percent.
    smart_saving_pct: float
    cells: tuple[CellReport, ...]

    def cell(self, policy: Union[Policy, str]) -> CellReport:
        """The row of one policy (KeyError when absent)."""
        name = policy.value if isinstance(policy, Policy) else str(policy)
        for row in self.cells:
            if row.policy == name:
                return row
        raise KeyError(f"no {name!r} cell in this comparison")


@dataclasses.dataclass(frozen=True)
class SweepPoint:
    """One slack point of a budget sweep."""

    slack: float
    power_uw: float
    upgraded_pct: float
    feasible: bool


@dataclasses.dataclass(frozen=True)
class SweepReport:
    """A smart-policy budget-slack sweep on one design."""

    design: str
    points: tuple[SweepPoint, ...]


def _cell_report(result: JobResult) -> CellReport:
    return CellReport(design=result.job.design,
                      policy=result.job.policy.value,
                      slack=result.job.slack,
                      feasible=result.feasible,
                      cached=result.cached,
                      runtime_s=result.runtime,
                      summary=dict(result.summary),
                      rule_histogram=dict(result.rule_histogram))


# -- request dataclasses -------------------------------------------------------


def _policy_name(policy: Union[Policy, str]) -> str:
    name = policy.value if isinstance(policy, Policy) else str(policy)
    Policy(name)  # raises ValueError for unknown policies
    return name


def _check_number(name: str, value: Any, high: float = float("inf")) -> None:
    """Raise unless ``value`` is a real number in ``[0, high]``.

    A request is checked before it reaches a worker, with the ranges
    the flow itself enforces; ``bool`` is not a number here.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a number, got {value!r}")
    if not 0.0 <= value <= high:
        bound = ("non-negative" if high == float("inf")
                 else f"in [0, {high:g}]")
        raise ValueError(f"{name} must be {bound}, got {value!r}")


def _check_slack(name: str, slack: Any) -> None:
    """Budget slack: ``None`` (period budgets) or a number >= 0."""
    if slack is not None:
        _check_number(name, slack)


class _RequestBase:
    """Shared JSON/round-trip machinery of the request dataclasses."""

    #: The wire tag of this request kind ("run", "compare", ...).
    KIND: ClassVar[str] = ""

    def to_dict(self) -> dict[str, Any]:
        """Exact JSON form: schema + kind tags plus every field."""
        out: dict[str, Any] = {"schema": REQUEST_SCHEMA, "kind": self.KIND}
        for f in dataclasses.fields(self):  # type: ignore[arg-type]
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> Any:
        """Rebuild from :meth:`to_dict` output (strict: unknown fields,
        wrong schema and wrong kind all raise ``ValueError``)."""
        schema = data.get("schema", REQUEST_SCHEMA)
        if schema != REQUEST_SCHEMA:
            raise ValueError(f"unsupported request schema {schema!r} "
                             f"(expected {REQUEST_SCHEMA})")
        kind = data.get("kind", cls.KIND)
        if kind != cls.KIND:
            raise ValueError(f"request kind {kind!r} is not {cls.KIND!r}")
        fields = {f.name: f for f in dataclasses.fields(cls)}  # type: ignore[arg-type]
        unknown = set(data) - set(fields) - {"schema", "kind"}
        if unknown:
            raise ValueError(f"unknown {cls.KIND}-request fields "
                             f"{sorted(unknown)}")
        kwargs = {}
        for name, f in fields.items():
            if name not in data:
                continue
            value = data[name]
            if isinstance(value, list):
                value = tuple(value)
            kwargs[name] = value
        return cls(**kwargs)

    def content_key(self) -> str:
        """Stable content hash for request-level dedup/coalescing.

        Design references resolve to *content* fingerprints (a corpus
        spec's knobs, a JSON file's bytes), so two textually different
        requests that compute the same thing share a key, and editing a
        design file changes it.
        """
        from repro.io.artifacts import fingerprint

        fields = {f.name: getattr(self, f.name)
                  for f in dataclasses.fields(self)}  # type: ignore[arg-type]
        return fingerprint({"schema": REQUEST_SCHEMA, "kind": self.KIND,
                            "fields": fields,
                            "design_content": design_ref_fingerprint(
                                fields["design"])})


@dataclasses.dataclass(frozen=True)
class FlowRequest(_RequestBase):
    """One matrix cell: one policy flow on one design."""

    KIND: ClassVar[str] = "run"

    design: str
    policy: str = Policy.SMART.value
    slack: Optional[float] = 0.15
    random_fraction: float = 0.3
    random_seed: int = 0
    lambda_track: float = 0.05

    def __post_init__(self) -> None:
        _policy_name(self.policy)
        if not self.design:
            raise ValueError("run request needs a design")
        _check_slack("slack", self.slack)
        _check_number("random_fraction", self.random_fraction, high=1.0)
        _check_number("lambda_track", self.lambda_track)
        if isinstance(self.random_seed, bool) \
                or not isinstance(self.random_seed, numbers.Integral):
            raise TypeError(f"random_seed must be an integer, "
                            f"got {self.random_seed!r}")

    def job_spec(self) -> JobSpec:
        """The runner cell this request describes."""
        return JobSpec(design=self.design, policy=Policy(self.policy),
                       slack=self.slack,
                       random_fraction=self.random_fraction,
                       random_seed=self.random_seed,
                       lambda_track=self.lambda_track)


@dataclasses.dataclass(frozen=True)
class CompareRequest(_RequestBase):
    """NO/ALL/SMART policies on one design."""

    KIND: ClassVar[str] = "compare"

    design: str
    slack: float = 0.15

    def __post_init__(self) -> None:
        if not self.design:
            raise ValueError("compare request needs a design")
        _check_slack("slack", self.slack)


@dataclasses.dataclass(frozen=True)
class SweepRequest(_RequestBase):
    """Budget-slack sweep of the smart policy on one design."""

    KIND: ClassVar[str] = "sweep"

    design: str
    slacks: tuple[float, ...] = (0.6, 0.3, 0.15)

    def __post_init__(self) -> None:
        if not self.design:
            raise ValueError("sweep request needs a design")
        if not self.slacks:
            raise ValueError("sweep request needs at least one slack")
        for slack in self.slacks:
            _check_number("slacks entry", slack)
        object.__setattr__(self, "slacks",
                           tuple(float(s) for s in self.slacks))


@dataclasses.dataclass(frozen=True)
class LintRequest(_RequestBase):
    """A flow's DRC/ERC + oracle checks on one design."""

    KIND: ClassVar[str] = "lint"

    design: str
    policy: str = Policy.SMART.value
    kinds: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.design:
            raise ValueError("lint request needs a design")
        _policy_name(self.policy)
        flow_checks(self.kinds or None)  # a kind no flow check has raises


#: Wire tag -> request class (the router's dispatch table).
REQUEST_KINDS: dict[str, type] = {
    FlowRequest.KIND: FlowRequest,
    CompareRequest.KIND: CompareRequest,
    SweepRequest.KIND: SweepRequest,
    LintRequest.KIND: LintRequest,
}


def request_from_dict(data: dict[str, Any],
                      kind: Optional[str] = None) -> Any:
    """Parse any request payload, dispatching on its ``kind`` tag.

    ``kind`` (e.g. from the service URL) fills in a missing tag and
    must agree with an explicit one.
    """
    tag = data.get("kind", kind)
    if tag is None:
        raise ValueError("request payload has no 'kind' "
                         f"(expected one of {sorted(REQUEST_KINDS)})")
    if kind is not None and tag != kind:
        raise ValueError(f"request kind {tag!r} does not match "
                         f"endpoint kind {kind!r}")
    cls = REQUEST_KINDS.get(str(tag))
    if cls is None:
        raise ValueError(f"unknown request kind {tag!r} "
                         f"(expected one of {sorted(REQUEST_KINDS)})")
    return cls.from_dict({**data, "kind": tag})


def request_field_default(cls: type, name: str) -> Any:
    """The schema default of one request field (the CLI's source of truth)."""
    for f in dataclasses.fields(cls):
        if f.name == name:
            if f.default is not dataclasses.MISSING:
                return f.default
            if f.default_factory is not dataclasses.MISSING:
                return f.default_factory()
            raise ValueError(f"{cls.__name__}.{name} has no default")
    raise KeyError(f"{cls.__name__} has no field {name!r}")


def report_to_dict(report: Any) -> dict[str, Any]:
    """JSON-ready form of any entry-point report (the service wire form)."""
    if isinstance(report, (CellReport, CompareReport, SweepReport)):
        kind = {CellReport: "run", CompareReport: "compare",
                SweepReport: "sweep"}[type(report)]
        return {"kind": kind, **dataclasses.asdict(report)}
    if isinstance(report, VerifyReport):
        import json

        return {"kind": "lint", "report": json.loads(report.to_json()),
                "has_errors": bool(report.has_errors)}
    raise TypeError(f"cannot serialise report {type(report).__name__}")


# -- entry points --------------------------------------------------------------


def run(request: FlowRequest, *, jobs: int = 1, store: Any = True,
        tech: Optional[Technology] = None) -> CellReport:
    """Execute one matrix cell described by a :class:`FlowRequest`."""
    if not isinstance(request, FlowRequest):
        raise TypeError("run() takes a FlowRequest; for a raw design/"
                        "technology object use api.run_flow")
    runner = FlowRunner(tech=tech, store=store, jobs=jobs)
    return _cell_report(runner.run_job(request.job_spec(),
                                       return_flow=False))


def compare(request: CompareRequest, *, jobs: int = 1,
            store: Any = True, tech: Optional[Technology] = None
            ) -> CompareReport:
    """Compare NO/ALL/SMART policies on one design.

    Takes a :class:`CompareRequest` (the schema) plus execution-only
    options: ``jobs`` fans cells over worker processes; ``store``
    accepts anything :class:`~repro.runner.FlowRunner` does (``True``
    for the per-user artifact cache, ``False``/``None`` to disable, a
    path, or a live store).
    """
    if not isinstance(request, CompareRequest):
        raise TypeError("compare() takes a CompareRequest, e.g. "
                        "compare(CompareRequest(design='ckt64'))")
    runner = FlowRunner(tech=tech, store=store, jobs=jobs)
    policies = (Policy.NO_NDR, Policy.ALL_NDR, Policy.SMART)
    results = runner.run([JobSpec(design=request.design, policy=p,
                                  slack=request.slack) for p in policies],
                         jobs=jobs)
    by_policy = {r.job.policy: r for r in results}
    p_all = by_policy[Policy.ALL_NDR].summary["power_uw"]
    p_smart = by_policy[Policy.SMART].summary["power_uw"]
    saving = 100.0 * (p_all - p_smart) / p_all
    return CompareReport(design=request.design, slack=request.slack,
                         smart_saving_pct=saving,
                         cells=tuple(_cell_report(r) for r in results))


def sweep(request: SweepRequest, *, jobs: int = 1, store: Any = True,
          tech: Optional[Technology] = None) -> SweepReport:
    """Sweep the budget slack for the smart policy on one design.

    The all-NDR reference is computed once and every slack's budgets
    derive from it — a sweep costs one reference plus one smart flow
    per point.  Takes a :class:`SweepRequest`.
    """
    if not isinstance(request, SweepRequest):
        raise TypeError("sweep() takes a SweepRequest, e.g. "
                        "sweep(SweepRequest(design='ckt64'))")
    ordered = sorted(request.slacks, reverse=True)
    runner = FlowRunner(tech=tech, store=store, jobs=jobs)
    results = runner.run([JobSpec(design=request.design, policy=Policy.SMART,
                                  slack=s) for s in ordered], jobs=jobs)
    points = []
    for result in results:
        hist = result.rule_histogram
        total = sum(hist.values())
        points.append(SweepPoint(
            slack=float(result.job.slack or 0.0),
            power_uw=result.summary["power_uw"],
            upgraded_pct=100.0 * (total - hist.get("W1S1", 0)) / total,
            feasible=result.feasible))
    return SweepReport(design=request.design, points=tuple(points))


def lint(request: LintRequest, *,
         tech: Optional[Technology] = None) -> VerifyReport:
    """Run one flow and verify it: its DRC/ERC + engine-oracle checks.

    The flow runs under the period-derived budgets; ``kinds`` restricts
    the checks to those kinds (``("drc",)``).  Returns the
    :class:`~repro.verify.VerifyReport` (``has_errors``, ``render()``,
    ``to_json()``).
    """
    if not isinstance(request, LintRequest):
        raise TypeError("lint() takes a LintRequest, e.g. "
                        "lint(LintRequest(design='ckt64'))")
    from repro.core.targets import RobustnessTargets
    from repro.runner import resolve_design

    resolved_tech = tech if tech is not None else default_technology()
    design_obj = resolve_design(request.design)
    targets = RobustnessTargets.for_period(design_obj.clock_period,
                                           resolved_tech.max_slew)
    flow = run_flow(design_obj, resolved_tech,
                    policy=Policy(request.policy), targets=targets)
    return verify_flow(flow, kinds=request.kinds or None)


def execute(request: Any, *, jobs: int = 1, store: Any = True,
            tech: Optional[Technology] = None) -> Any:
    """Dispatch any request object to its entry point.

    The one call the service worker needs: give it a parsed request
    (:func:`request_from_dict`) and it returns the matching report.
    """
    if isinstance(request, FlowRequest):
        return run(request, jobs=jobs, store=store, tech=tech)
    if isinstance(request, CompareRequest):
        return compare(request, jobs=jobs, store=store, tech=tech)
    if isinstance(request, SweepRequest):
        return sweep(request, jobs=jobs, store=store, tech=tech)
    if isinstance(request, LintRequest):
        return lint(request, tech=tech)
    raise TypeError(f"not a request object: {type(request).__name__}")


def trace_report(path: Union[str, Path], top: int = 10) -> str:
    """Render a trace JSONL file (the ``repro trace`` subcommand view)."""
    from repro.obs.export import load_trace
    from repro.obs.report import render_trace_report

    trace = load_trace(path)
    return render_trace_report(trace, top=top,
                               title=f"trace {trace.name} ({Path(path).name})")
