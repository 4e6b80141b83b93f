#!/usr/bin/env python
"""Benchmark gate for the staged flow runner.

Two checks, recorded in ``BENCH_runner.json`` at the repo root:

* **smoke** — the ckt64 policy comparison run with ``--jobs 2`` must
  reproduce the serial summaries bit for bit (same cells, fresh
  artifact stores on both sides);
* **timing** — a cold ckt256 policy comparison (fresh store; the work
  the seed's serial compare path performed) against a warm rerun of
  the same matrix from the populated store.  The warm rerun must be
  at least 2x faster: every cell comes back as a deserialized
  artifact, not a re-run flow.  Both runs share one process, so a
  full ``gc.collect()`` precedes each timed window: a cyclic-GC pass
  over the cold run's dropped objects must not land in the warm one.

Exits nonzero if either property fails, so CI can gate on it.

Usage::

    PYTHONPATH=src python tools/bench_runner.py [--out BENCH_runner.json]
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import tempfile
import time
from pathlib import Path

from repro.core import Policy
from repro.runner import FlowRunner, RunMatrix

SMOKE_DESIGN = "ckt64"
TIMING_DESIGN = "ckt256"
POLICIES = (Policy.NO_NDR, Policy.ALL_NDR, Policy.SMART)
MIN_WARM_SPEEDUP = 2.0


def _matrix(design: str) -> RunMatrix:
    return RunMatrix(designs=(design,), policies=POLICIES, slacks=(0.15,))


def _fresh_store() -> str:
    return tempfile.mkdtemp(prefix="repro-bench-runner-")


def smoke() -> dict:
    """ckt64 x 3 policies: a 2-worker pool must match the serial path."""
    serial = FlowRunner(store=_fresh_store()).run(_matrix(SMOKE_DESIGN))
    parallel = FlowRunner(store=_fresh_store()).run(_matrix(SMOKE_DESIGN),
                                                    jobs=2)
    matches = all(s.summary == p.summary
                  and s.rule_histogram == p.rule_histogram
                  and s.feasible == p.feasible
                  for s, p in zip(serial, parallel))
    return {
        "design": SMOKE_DESIGN,
        "policies": [p.value for p in POLICIES],
        "jobs": 2,
        "cells": len(serial),
        "parallel_matches_serial": matches,
    }


def timing() -> dict:
    """Cold vs warm ckt256 comparison through one artifact store."""
    store = _fresh_store()
    matrix = _matrix(TIMING_DESIGN)

    gc.collect()
    start = time.perf_counter()
    FlowRunner(store=store).run(matrix)
    cold_s = time.perf_counter() - start

    gc.collect()
    start = time.perf_counter()
    warm = FlowRunner(store=store).run(matrix)
    warm_s = time.perf_counter() - start

    return {
        "design": TIMING_DESIGN,
        "policies": [p.value for p in POLICIES],
        "cold_s": round(cold_s, 3),
        "warm_s": round(warm_s, 3),
        "speedup": round(cold_s / warm_s, 2),
        "warm_cells_cached": all(r.cached for r in warm),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent
                    / "BENCH_runner.json"),
        help="output JSON path (default: repo-root BENCH_runner.json)")
    args = parser.parse_args(argv)

    record = {"smoke": smoke(), "timing": timing()}
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))

    ok = True
    if not record["smoke"]["parallel_matches_serial"]:
        print("FAIL: parallel summaries differ from serial", file=sys.stderr)
        ok = False
    if not record["timing"]["warm_cells_cached"]:
        print("FAIL: warm rerun re-executed at least one cell",
              file=sys.stderr)
        ok = False
    if record["timing"]["speedup"] < MIN_WARM_SPEEDUP:
        print(f"FAIL: warm speedup {record['timing']['speedup']}x "
              f"< {MIN_WARM_SPEEDUP}x", file=sys.stderr)
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
