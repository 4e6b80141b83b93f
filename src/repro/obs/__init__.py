"""Structured observability: spans, metrics, trace export.

The measurement substrate for the whole flow (see
``docs/OBSERVABILITY.md``):

* :func:`span` — hierarchical timed regions with attributes and a
  context-local active-span stack (:mod:`repro.obs.spans`);
* :func:`counter` / :func:`gauge` / :func:`histogram` — the metric
  registry wired into the hot paths (:mod:`repro.obs.metrics`);
* :func:`capture` + :meth:`Tracer.adopt` — cross-process propagation:
  workers ship their span trees and metric deltas back inside the
  streamed job result and the parent re-roots them, so a parallel
  matrix run yields one coherent trace;
* :mod:`repro.obs.export` — the JSONL trace format behind ``--trace``
  and the ``repro trace`` renderer (:mod:`repro.obs.report`).

Everything is off by default and costs one ``None`` check per probe;
:func:`enable` installs the process tracer.
"""

from __future__ import annotations

import resource
import sys
from typing import Union

from repro.obs.metrics import (NULL_METRIC, Counter, Gauge, Histogram,
                               MetricsRegistry, _NullMetric)
from repro.obs.spans import (SpanRecord, Tracer, active, capture,
                             current_span_id, disable, enable, span)

#: Span names the runner standardises on (consumed by the renderer).
CELL_SPAN = "runner.cell"
MATRIX_SPAN = "runner.matrix"


def counter(name: str) -> Union[Counter, _NullMetric]:
    """The named counter of the installed tracer (no-op when off)."""
    tracer = active()
    if tracer is None:
        return NULL_METRIC
    return tracer.metrics.counter(name)


def gauge(name: str) -> Union[Gauge, _NullMetric]:
    """The named gauge of the installed tracer (no-op when off)."""
    tracer = active()
    if tracer is None:
        return NULL_METRIC
    return tracer.metrics.gauge(name)


def histogram(name: str) -> Union[Histogram, _NullMetric]:
    """The named histogram of the installed tracer (no-op when off)."""
    tracer = active()
    if tracer is None:
        return NULL_METRIC
    return tracer.metrics.histogram(name)


def peak_rss_bytes() -> int:
    """Peak resident-set size of this process, in bytes.

    Reads ``ru_maxrss`` from :func:`resource.getrusage` — kibibytes on
    Linux, bytes on macOS.  The engine publishes this as the
    ``engine.peak_rss_bytes`` gauge after each stage-batch analysis so
    ``repro trace`` shows memory next to time.
    """
    rss = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if sys.platform == "darwin":
        return rss
    return rss * 1024


__all__ = [
    "CELL_SPAN",
    "MATRIX_SPAN",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRIC",
    "SpanRecord",
    "Tracer",
    "active",
    "capture",
    "counter",
    "current_span_id",
    "disable",
    "enable",
    "gauge",
    "histogram",
    "peak_rss_bytes",
    "span",
]
