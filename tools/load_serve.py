#!/usr/bin/env python
"""Load generator + benchmark gate for the serve daemon.

Boots a :class:`~repro.serve.ServeDaemon` on an ephemeral port with a
fresh artifact store, then drives three concurrent workloads over raw
sockets (exactly what an external client would send) and records the
results in ``BENCH_serve.json`` at the repo root:

* **hot-repeat** — N clients all posting the *identical* request:
  after one cold fill this measures the response-cache fast path;
* **cold-unique** — N clients posting N *distinct* smart runs (a slack
  sweep, none at a slack another workload uses): each cell's budgets
  are new, so every one is a real optimizer flow on the worker pool,
  not a read of a stored cell record;
* **sweep-burst** — a burst of identical sweep requests fired
  concurrently while cold: the coalescer must collapse them to one
  computation, so this is the single-flight proof.

Gates (exit nonzero so CI can block on them):

* hot-repeat throughput >= ``--min-speedup``x cold-unique throughput
  at equal concurrency;
* the sweep burst performs exactly one underlying computation
  (coalescer counters + worker-pool submission count agree);
* every response is HTTP 200 with ``status: ok``.

Usage::

    PYTHONPATH=src python tools/load_serve.py [--out BENCH_serve.json]
        [--clients 8] [--workers 2] [--design ckt64] [--min-speedup 3]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path


async def _post(host: str, port: int, path: str,
                payload: dict) -> tuple[int, dict, float]:
    """One request over a fresh connection; returns (status, body, s)."""
    started = time.perf_counter()
    reader, writer = await asyncio.open_connection(host, port)
    body = json.dumps(payload).encode()
    writer.write((f"POST {path} HTTP/1.1\r\nHost: {host}\r\n"
                  f"Content-Length: {len(body)}\r\n"
                  "Connection: close\r\n\r\n").encode() + body)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, rest = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(rest), time.perf_counter() - started


def _percentiles(latencies: list[float]) -> dict:
    ordered = sorted(latencies)

    def pct(p: float) -> float:
        idx = min(len(ordered) - 1, round(p * (len(ordered) - 1)))
        return ordered[int(idx)]

    to_ms = 1e3  # static: ok[U002] wall-clock seconds -> report milliseconds
    return {"p50_ms": round(pct(0.50) * to_ms, 3),
            "p95_ms": round(pct(0.95) * to_ms, 3),
            "max_ms": round(ordered[-1] * to_ms, 3),
            "mean_ms": round(statistics.fmean(ordered) * to_ms, 3)}


async def _workload(daemon, path: str, payloads: list[dict]) -> dict:
    """Fire every payload concurrently; summarize latency/throughput."""
    started = time.perf_counter()
    outcomes = await asyncio.gather(*[
        _post(daemon.config.host, daemon.port, path, p) for p in payloads])
    wall = time.perf_counter() - started
    oks = [env for status, env, _ in outcomes
           if status == 200 and env.get("status") == "ok"]
    return {
        "requests": len(payloads),
        "ok": len(oks),
        "wall_s": round(wall, 4),
        "throughput_rps": round(len(payloads) / wall, 2),
        "coalesced": sum(1 for env in oks if env.get("coalesced")),
        "cached": sum(1 for env in oks if env.get("cached")),
        "latency": _percentiles([dt for _, _, dt in outcomes]),
    }


async def drive(args: argparse.Namespace) -> dict:
    from repro.serve import ServeConfig, ServeDaemon

    store_root = tempfile.mkdtemp(prefix="repro-load-serve-")
    daemon = ServeDaemon(ServeConfig(port=0, workers=args.workers,
                                     store_root=store_root))
    await daemon.start()
    try:
        record: dict = {"design": args.design, "clients": args.clients,
                        "workers": args.workers}

        # Cold fill so hot-repeat measures the steady state, not the
        # first computation.
        hot_payload = {"design": args.design, "slack": 0.3}
        await _post(daemon.config.host, daemon.port, "/v1/compare",
                    hot_payload)
        record["hot_repeat"] = await _workload(
            daemon, "/v1/compare", [hot_payload] * args.clients)

        # Distinct slacks, not seeds: a smart cell's key drops the
        # seed, so one record would answer every request.  Odd
        # thousandths never hit the hot fill's 0.3 or the burst's 0.5/0.2.
        cold_payloads = [{"design": args.design,
                          "slack": round(0.301 + 0.002 * i, 3),
                          "policy": "smart"}
                         for i in range(args.clients)]
        record["cold_unique"] = await _workload(
            daemon, "/v1/run", cold_payloads)

        before = daemon.coalescer.stats()
        submitted_before = daemon.pool.submitted
        burst_payload = {"design": args.design, "slacks": [0.5, 0.2]}
        record["sweep_burst"] = await _workload(
            daemon, "/v1/sweep", [burst_payload] * args.clients)
        after = daemon.coalescer.stats()
        record["sweep_burst"]["computations"] = (
            after["computations"] - before["computations"])
        record["sweep_burst"]["pool_submitted"] = (
            daemon.pool.submitted - submitted_before)

        stats = daemon.stats()
        total = sum(v for k, v in stats["counters"].items()
                    if k.startswith("requests."))
        served_warm = (stats["counters"].get("response_cache_hits", 0)
                       + stats["counters"].get("coalesced_requests", 0))
        record["totals"] = {
            "requests": total,
            "computations": stats["coalescer"]["computations"],
            "coalesced": stats["coalescer"]["coalesced"],
            "response_cache_hits":
                stats["counters"].get("response_cache_hits", 0),
            "coalesce_hit_rate": round(served_warm / total, 4),
            "store": stats["store"],
        }
        return record
    finally:
        await daemon.stop()


def check(record: dict, min_speedup: float) -> list[str]:
    failures = []
    for name in ("hot_repeat", "cold_unique", "sweep_burst"):
        load = record[name]
        if load["ok"] != load["requests"]:
            failures.append(f"{name}: {load['requests'] - load['ok']} "
                            "requests failed")
    hot = record["hot_repeat"]["throughput_rps"]
    cold = record["cold_unique"]["throughput_rps"]
    speedup = hot / cold if cold else float("inf")
    record["hot_over_cold_speedup"] = round(speedup, 2)
    if speedup < min_speedup:
        failures.append(f"hot-repeat is only {speedup:.2f}x cold-unique "
                        f"(need >= {min_speedup}x)")
    burst = record["sweep_burst"]
    if burst["computations"] != 1 or burst["pool_submitted"] != 1:
        failures.append(
            f"sweep burst ran {burst['computations']} computations / "
            f"{burst['pool_submitted']} pool submissions (want exactly 1)")
    if record["totals"]["coalesce_hit_rate"] <= 0:
        failures.append("coalesce hit rate is zero")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_serve.json")
    parser.add_argument("--clients", type=int, default=8,
                        help="concurrent clients per workload (default 8)")
    parser.add_argument("--workers", type=int, default=2,
                        help="daemon worker processes (default 2)")
    parser.add_argument("--design", default="ckt64")
    parser.add_argument("--min-speedup", type=float, default=3.0,
                        help="required hot/cold throughput ratio")
    args = parser.parse_args()

    record = asyncio.run(drive(args))
    failures = check(record, args.min_speedup)
    record["failures"] = failures
    Path(args.out).write_text(json.dumps(record, indent=2,
                                         sort_keys=True) + "\n")
    print(json.dumps(record, indent=2, sort_keys=True))
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("load_serve: all gates passed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
