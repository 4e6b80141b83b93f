"""Hierarchical spans with a context-local active-span stack.

A *span* is one timed, named region of work — ``with obs.span("opt.extract",
wires=n): ...`` — carrying a deterministic sequential id, a parent link,
a start offset and duration on the **monotonic** clock, and free-form
attributes.  Nesting is explicit: the active-span stack lives in a
:class:`contextvars.ContextVar`, so the parent of a new span is whatever
span the *current context* has open, never a guess reconstructed from
timestamps.

A :class:`Tracer` owns one trace: the ordered span records, the metric
registry (:mod:`repro.obs.metrics`), and the id counter.  Ids are
sequential integers in execution order — no wall-clock values, PIDs or
object addresses ever feed a span identity, so the same code produces
the same trace *shape* on every run and in every process.

Cross-process propagation is explicit and identity-preserving:

* in-process work records into whatever tracer is installed;
* a pool worker runs each job under a fresh captured tracer
  (:func:`capture`) and ships :meth:`Tracer.export_payload` back with
  its result;
* the parent calls :meth:`Tracer.adopt`, which re-ids the records onto
  its own counter, re-roots the payload's root spans under a chosen
  parent span, and merges the metric deltas.

Because every span is one record adopted at most once, totals can never
double-count — the failure mode of a flat, name-keyed timer-dict
merge, where a cell executed in-process on a cache fallback was folded
into the parent's totals twice.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from repro.obs.metrics import MetricsRegistry

#: The trace clock.  Monotonic by contract: span starts/durations are
#: offsets on it, never wall-clock timestamps.
_CLOCK = time.perf_counter

#: Context-local stack of open span ids (innermost last).  One slot per
#: process is enough because at most one tracer is installed at a time.
_STACK: ContextVar[tuple[int, ...]] = ContextVar("repro_obs_stack",
                                                 default=())


@dataclass
class SpanRecord:
    """One finished (or still-open) span of a trace."""

    span_id: int
    parent_id: Optional[int]
    name: str
    #: Start offset in seconds from the owning tracer's origin.
    start_s: float
    #: Filled in when the span closes; ``None`` while still open.
    duration_s: Optional[float] = None
    attrs: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready form (the trace-payload / JSONL ``span`` event)."""
        return {"id": self.span_id, "parent": self.parent_id,
                "name": self.name, "start_s": self.start_s,
                "dur_s": 0.0 if self.duration_s is None else self.duration_s,
                "attrs": dict(self.attrs)}


class Tracer:
    """One trace: ordered span records plus a metric registry."""

    def __init__(self, name: str = "trace") -> None:
        self.name = name
        self.records: list[SpanRecord] = []
        self.metrics = MetricsRegistry()
        self._next_id = 1
        self._origin = _CLOCK()  # static: ok[D002] span timing is trace metadata, never artifact content

    # -- recording -----------------------------------------------------------

    def elapsed(self) -> float:
        """Seconds of monotonic time since this trace started."""
        return _CLOCK() - self._origin  # static: ok[D002] span timing is trace metadata, never artifact content

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[SpanRecord]:
        """Open a child of the context's current span for the block."""
        sid = self._next_id
        self._next_id += 1
        stack = _STACK.get()
        record = SpanRecord(span_id=sid,
                            parent_id=stack[-1] if stack else None,
                            name=name, start_s=self.elapsed(),
                            attrs=dict(attrs))
        self.records.append(record)
        token = _STACK.set(stack + (sid,))
        try:
            yield record
        finally:
            _STACK.reset(token)
            record.duration_s = self.elapsed() - record.start_s

    # -- aggregation ---------------------------------------------------------

    def phase_totals(self) -> dict[str, dict[str, float]]:
        """Per-name totals, ``{name: {seconds, calls}}``.

        The flat per-phase breakdown: nested spans are
        counted under their own name *and* inside their enclosing
        span's duration (a breakdown, not a partition).  Open spans
        are skipped — only finished work is attributed.
        """
        out: dict[str, dict[str, float]] = {}
        for record in self.records:
            if record.duration_s is None:
                continue
            entry = out.setdefault(record.name, {"seconds": 0.0, "calls": 0})
            entry["seconds"] += record.duration_s
            entry["calls"] += 1
        return out

    # -- cross-process propagation -------------------------------------------

    def export_payload(self) -> dict[str, Any]:
        """The serializable trace: span records + metric snapshot.

        This is what a worker streams back inside its job result; the
        parent re-roots it with :meth:`adopt`.  Plain dicts and scalars
        only, so the payload survives pickling and JSON alike.
        """
        return {"name": self.name,
                "records": [r.as_dict() for r in self.records],
                "metrics": self.metrics.export()}

    def adopt(self, payload: dict[str, Any],
              parent_id: Optional[int] = None) -> list[int]:
        """Fold a :meth:`export_payload` into this trace.

        Records are re-identified onto this tracer's counter (one new
        id per record — identity is preserved, so adopting can never
        double-count), root spans are re-parented under ``parent_id``,
        and start offsets are shifted so the payload's latest span ends
        at this trace's current elapsed time (workers finish just
        before the parent adopts their result).  Metric deltas merge
        into this tracer's registry.  Returns the new ids.
        """
        records = payload.get("records", [])
        shift = 0.0
        if records:
            ends = [r["start_s"] + r["dur_s"] for r in records]
            shift = self.elapsed() - max(ends)
        id_map: dict[int, int] = {}
        new_ids: list[int] = []
        for r in records:
            sid = self._next_id
            self._next_id += 1
            id_map[r["id"]] = sid
            new_ids.append(sid)
            parent = (id_map.get(r["parent"])
                      if r["parent"] is not None else parent_id)
            self.records.append(SpanRecord(
                span_id=sid, parent_id=parent, name=r["name"],
                start_s=r["start_s"] + shift, duration_s=r["dur_s"],
                attrs=dict(r["attrs"])))
        self.metrics.merge(payload.get("metrics", {}))
        return new_ids


# -- the installed tracer ------------------------------------------------------

_TRACER: Optional[Tracer] = None


def enable(name: str = "session") -> Tracer:
    """Install (or return the already-installed) process tracer."""
    global _TRACER
    if _TRACER is None:
        _TRACER = Tracer(name)  # static: ok[D004] process-local tracing slot; spans are metadata, never artifact content
    return _TRACER


def disable() -> None:
    """Remove the tracer; ``span`` blocks become no-ops again."""
    global _TRACER
    _TRACER = None  # static: ok[D004] process-local tracing slot; spans are metadata, never artifact content


def active() -> Optional[Tracer]:
    """The installed tracer, or ``None`` when tracing is off."""
    return _TRACER  # static: ok[C003] tracing toggle read; spans are metadata, never artifact content


def current_span_id() -> Optional[int]:
    """Id of the context's innermost open span, or ``None``."""
    stack = _STACK.get()
    return stack[-1] if stack else None


@contextmanager
def span(name: str, **attrs: Any) -> Iterator[Optional[SpanRecord]]:
    """Record a span when tracing is enabled; free no-op otherwise."""
    if _TRACER is None:  # static: ok[C003] tracing toggle read; spans are metadata, never artifact content
        yield None
    else:
        with _TRACER.span(name, **attrs) as record:  # static: ok[C003] tracing toggle read; spans are metadata, never artifact content
            yield record


@contextmanager
def capture(name: str = "capture") -> Iterator[Tracer]:
    """Run the block under a fresh tracer; yield it.

    The installed tracer (if any) is swapped out for the block and
    restored afterwards; the captured spans and metrics stay on the
    yielded tracer.  A pool entry point captures its job this way and
    ships :meth:`Tracer.export_payload` to its parent, which adopts it
    exactly once (:meth:`Tracer.adopt`).
    """
    global _TRACER
    outer = _TRACER
    inner = Tracer(name)
    _TRACER = inner  # static: ok[D004] process-local tracing slot, restored in the finally below
    stack_token = _STACK.set(())
    try:
        yield inner
    finally:
        _STACK.reset(stack_token)
        _TRACER = outer  # static: ok[D004] restores the outer tracer; tracing state never crosses processes
