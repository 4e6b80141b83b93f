"""Human-readable rendering of a trace: the ``repro trace`` views.

Three tables over one :class:`~repro.obs.export.TraceData` (or a live
:class:`~repro.obs.spans.Tracer`):

* **phase breakdown** — per span name: calls, total seconds, *self*
  seconds (total minus direct children — the partition a flat
  per-name timer report cannot give), share of the trace;
* **per-cell timeline** — one row per ``runner.cell`` span in start
  order: where each matrix cell ran, for how long, and whether it was
  served from the artifact cache;
* **critical path** — from the heaviest root span, repeatedly descend
  into the heaviest child: the chain of spans that bounds the run's
  wall time end to end.

Plus the metric snapshot, name-sorted.  All output goes through
:class:`repro.reporting.Table`, same as every experiment table.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.obs import CELL_SPAN
from repro.obs.export import TraceData
from repro.obs.spans import SpanRecord, Tracer
from repro.reporting.tables import Table

TraceLike = Union[TraceData, Tracer]


def _spans(trace: TraceLike) -> list[SpanRecord]:
    return list(trace.records if isinstance(trace, Tracer) else trace.spans)


def _metrics(trace: TraceLike) -> dict[str, dict[str, object]]:
    if isinstance(trace, Tracer):
        return dict(trace.metrics.export())
    return dict(trace.metrics)


def _duration(record: SpanRecord) -> float:
    return record.duration_s or 0.0


def _children(spans: list[SpanRecord]) -> dict[Optional[int], list[SpanRecord]]:
    table: dict[Optional[int], list[SpanRecord]] = {}
    for record in spans:
        table.setdefault(record.parent_id, []).append(record)
    return table


def phase_breakdown(trace: TraceLike) -> Table:
    """Per-name totals with self time, heaviest first."""
    spans = _spans(trace)
    children = _children(spans)
    wall = sum(_duration(r) for r in children.get(None, ()))
    totals: dict[str, list[float]] = {}  # name -> [seconds, self, calls]
    for record in spans:
        child_time = sum(_duration(c)
                         for c in children.get(record.span_id, ()))
        entry = totals.setdefault(record.name, [0.0, 0.0, 0.0])
        entry[0] += _duration(record)
        entry[1] += max(0.0, _duration(record) - child_time)
        entry[2] += 1
    table = Table("phase breakdown",
                  ["span", "calls", "total s", "self s", "% of run"])
    for name in sorted(totals, key=lambda n: totals[n][0], reverse=True):
        seconds, self_s, calls = totals[name]
        share = 100.0 * seconds / wall if wall > 0 else 0.0
        table.add_row(name, int(calls), seconds, self_s, share)
    return table


def cell_timeline(trace: TraceLike) -> Table:
    """One row per runner cell, in start order."""
    cells = sorted((r for r in _spans(trace) if r.name == CELL_SPAN),
                   key=lambda r: (r.start_s, r.span_id))
    table = Table("cell timeline",
                  ["cell", "start s", "dur s", "cached", "span id"])
    for record in cells:
        table.add_row(str(record.attrs.get("cell", "?")), record.start_s,
                      _duration(record),
                      "yes" if record.attrs.get("cached") else "no",
                      record.span_id)
    return table


def critical_path(trace: TraceLike, top: int = 10) -> Table:
    """The heaviest root-to-leaf chain, at most ``top`` levels deep."""
    spans = _spans(trace)
    children = _children(spans)
    table = Table(f"critical path (top {top})",
                  ["depth", "span", "dur s", "% of parent"])
    roots = children.get(None, [])
    if not roots:
        return table
    node = max(roots, key=_duration)
    parent_s = _duration(node)
    for depth in range(top):
        share = (100.0 * _duration(node) / parent_s
                 if parent_s > 0 else 100.0)
        label = str(node.attrs.get("cell", "")) or node.name
        if label != node.name:
            label = f"{node.name} [{label}]"
        table.add_row(depth, label, _duration(node), share)
        kids = children.get(node.span_id)
        if not kids:
            break
        parent_s = _duration(node)
        node = max(kids, key=_duration)
    return table


def metrics_table(trace: TraceLike) -> Table:
    """The metric snapshot, name-sorted."""
    table = Table("metrics", ["metric", "kind", "value"])
    for name, entry in sorted(_metrics(trace).items()):
        kind = str(entry.get("kind", "?"))
        if kind == "histogram":
            count = int(entry.get("count", 0))  # type: ignore[arg-type]
            total = float(entry.get("sum", 0.0))  # type: ignore[arg-type]
            mean = total / count if count else 0.0
            value = (f"n={count} mean={mean:.3g} "
                     f"min={entry.get('min', 0)} max={entry.get('max', 0)}")
        else:
            value = f"{entry.get('value', 0)}"
        table.add_row(name, kind, value)
    return table


def render_trace_report(trace: TraceLike, top: int = 10,
                        title: Optional[str] = None) -> str:
    """The full ``repro trace`` report: all views, newline-joined."""
    parts = []
    if title:
        parts.append(title)
    parts.append(phase_breakdown(trace).render())
    timeline = cell_timeline(trace)
    if timeline.rows:
        parts.append(timeline.render())
    parts.append(critical_path(trace, top=top).render())
    if _metrics(trace):
        parts.append(metrics_table(trace).render())
    return "\n\n".join(parts)
