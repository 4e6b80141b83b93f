"""The benchmark's own arithmetic: percentiles, ratios, digests.

Pure functions over plain numbers, so the tests can pin them down
without running a workload.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Iterable, Optional

#: A percentile is reported only when at least this many samples lie
#: beyond it (p90 therefore needs 100 samples).
MIN_BEYOND = 10

INF = math.inf


def latencies(records: Iterable[dict]) -> list[float]:
    """Per-request latencies in seconds; a failed request is infinite."""
    return [r["latency_s"] if r["ok"] else INF for r in records]


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly above the ``q`` quantile's rank among ``n``."""
    return n - math.ceil(q * n - 1e-9)


def quantile(samples: list[float], q: float) -> Optional[float]:
    """The ``q`` quantile (linear between closest ranks), or ``None``.

    ``None`` when fewer than :data:`MIN_BEYOND` samples lie beyond it,
    except for the median, which any non-empty sample has.  Infinite
    samples (failures) sort last and never average with a finite one:
    a quantile that touches a failure is infinite.
    """
    n = len(samples)
    if n == 0:
        return None
    if q != 0.5 and samples_beyond(n, q) < MIN_BEYOND:
        return None
    ordered = sorted(samples)
    pos = q * (n - 1)
    lo = math.floor(pos)
    frac = pos - lo
    if frac == 0.0 or lo + 1 >= n:
        return ordered[lo]
    a, b = ordered[lo], ordered[lo + 1]
    if math.isinf(a) or math.isinf(b):
        return INF
    return a + frac * (b - a)


def ratio(num: float, den: float) -> dict[str, Any]:
    """A ratio with its base: ``{"value", "num", "den"}``.

    ``value`` is ``None`` when the base is zero; the base is always
    kept so a reader can tell 0/0 from 0/40.
    """
    return {"value": (num / den) if den else None, "num": num, "den": den}


def median(values: list[float]) -> float:
    """Median of a non-empty list (mean of the two middle values)."""
    value = quantile(values, 0.5)
    if value is None:
        raise ValueError("median of an empty list")
    return value


def _rounded(obj: Any) -> Any:
    """Floats to 9 significant digits, recursively (digest input)."""
    if isinstance(obj, float):
        return float(f"{obj:.9g}")
    if isinstance(obj, dict):
        return {str(k): _rounded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v) for v in obj]
    return obj


def digest(obj: Any) -> str:
    """Short stable hash of a result, insensitive to float noise
    below nine significant digits."""
    blob = json.dumps(_rounded(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def result_digest(kind: str, result: dict) -> str:
    """Digest of the fields a user reads from one report.

    ``result`` is :func:`repro.api.report_to_dict` output: cell
    summaries, feasibility and rule histograms for runs and compares;
    the slack points for sweeps.  Design paths, timings and cache flags
    are left out: they differ between equal results.
    """
    def cell(c: dict) -> dict:
        return {"policy": c["policy"], "slack": c["slack"],
                "feasible": c["feasible"], "summary": c["summary"],
                "rule_histogram": c["rule_histogram"]}

    if kind == "run":
        body: Any = cell(result)
    elif kind == "compare":
        body = {"saving": result["smart_saving_pct"],
                "cells": [cell(c) for c in result["cells"]]}
    elif kind == "sweep":
        body = result["points"]
    else:
        raise ValueError(f"no digest for request kind {kind!r}")
    return digest({"kind": kind, "body": body})


def self_time(records: list[dict], span_id: int) -> float:
    """Duration of one span minus the part its children cover.

    ``records`` are span dicts (``id``, ``parent``, ``start_s``,
    ``dur_s``) of one trace; overlapping children count once.
    """
    span = next(r for r in records if r["id"] == span_id)
    lo, hi = span["start_s"], span["start_s"] + span["dur_s"]
    intervals = sorted((max(lo, r["start_s"]),
                        min(hi, r["start_s"] + r["dur_s"]))
                       for r in records if r["parent"] == span_id)
    covered, end = 0.0, lo
    for a, b in intervals:
        a = max(a, end)
        if b > a:
            covered += b - a
            end = b
    return max(0.0, span["dur_s"] - covered)
