"""One workload process: set-up, the timed closed loop, or the verifier pass.

``run.py`` starts this script in a fresh interpreter with a pinned
environment for every phase of a run::

    child.py fill    ... # warm-replay set-up: compares and sweeps, cold
    child.py measure ... # set-up, then the timed closed loop
    child.py verify  ... # one unmeasured pass with REPRO_VERIFY_FLOWS=1

and reads the JSON each phase writes to ``--out``.  ``measure
--setup-only`` stops at the first timed request; ``run.py`` uses it to
repeat set-up.  With ``--trace`` the timed loop runs with the layer
probes installed and :mod:`repro.obs` enabled, and the output carries
the per-layer metrics.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import sys
import time
from pathlib import Path
from typing import Any, Callable, Optional

import layers
import workloads
from stats import result_digest

#: The timed loop stops sending once it has run this many times its
#: nominal length, so a much slower commit still ends within budget.
MAX_STRETCH = 4.0


def _write_designs(specs: list[dict], directory: Path) -> dict[str, str]:
    """Generate and save the seeded designs; name -> JSON path."""
    from repro.designs import generate_design, spec_from_dict
    from repro.io import save_design

    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for spec in specs:
        path = directory / f"{spec['name']}.json"
        save_design(generate_design(spec_from_dict(spec)), path)
        paths[spec["name"]] = str(path)
    return paths


def _payload(req: dict, paths: dict[str, str]) -> dict[str, Any]:
    """The request's JSON body, naming the generated design file."""
    return {"design": paths[req["design"]], **req["body"]}


def _record(req: dict, latency: float, result: Optional[dict],
            error: Optional[str]) -> dict[str, Any]:
    rec: dict[str, Any] = {"id": req["id"], "kind": req["kind"],
                           "ok": error is None, "latency_s": latency,
                           "error": error}
    if result is not None:
        rec["digest"] = result_digest(req["kind"], result)
        if req["kind"] == "compare":
            smart = next(c for c in result["cells"] if c["policy"] == "smart")
            rec["saving_pct"] = result["smart_saving_pct"]
            rec["smart_feasible"] = smart["feasible"]
    return rec


def call_api(req: dict, paths: dict[str, str], store: str) -> dict:
    """One in-process request through :mod:`repro.api`, timed."""
    from repro import api

    entry = {"run": api.run, "compare": api.compare, "sweep": api.sweep}
    request = api.request_from_dict(_payload(req, paths), kind=req["kind"])
    start = time.perf_counter()
    try:
        report = entry[req["kind"]](request, jobs=1, store=store)
    except Exception as exc:  # noqa: BLE001 - a failed request is counted
        return _record(req, time.perf_counter() - start, None,
                       f"{type(exc).__name__}: {exc}")
    latency = time.perf_counter() - start
    return _record(req, latency, api.report_to_dict(report), None)


def _closed_loop(sequence: list, send: Callable[[Any], list[dict]],
                 budget_s: float) -> dict:
    """Send each item after the previous one completed; time the phase."""
    t_ready = time.monotonic()
    start = time.perf_counter()
    records: list[dict] = []
    truncated = False
    for item in sequence:
        if time.perf_counter() - start > budget_s:
            truncated = True
            break
        records.extend(send(item))
    return {"t_ready": t_ready, "elapsed_s": time.perf_counter() - start,
            "records": records, "truncated": truncated}


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- in-process workloads ------------------------------------------------------


def _traced(run: Any) -> tuple[dict, dict]:
    """Run ``run()`` with probes and tracing on; (its output, layers)."""
    from repro import obs

    missing = layers.install()
    tracer = obs.enable("perfbench")
    try:
        out = run()
    finally:
        obs.disable()
    counters = layers.counter_values(tracer.metrics.export())
    metrics = layers.layer_metrics([layers.span_dicts(tracer)], counters)
    return out, {"metrics": metrics, "missing_probes": missing}


def measure_in_process(args: argparse.Namespace) -> dict:
    run_dir = Path(args.dir)
    store = run_dir / "store"
    if args.workload == "cold-compare":
        designs, sequence = workloads.cold_compare(args.seed, args.seconds)
        paths = _write_designs(designs, run_dir / "designs")
        store.mkdir(parents=True, exist_ok=True)
        cold_digests: dict[str, Any] = {}
    else:
        setup = json.loads((run_dir / "setup.json").read_text())
        paths, cold_digests = setup["paths"], setup["digests"]
        _, _, sequence = workloads.warm_replay(args.seed, args.seconds)
    # Part of set-up, so that the loop starts warm: cold-compare computes
    # a small design in a store of its own, warm-replay replays its
    # first request that set-up computed.
    if args.workload == "cold-compare":
        spec, req = workloads.warm_up()
        warm = call_api(req, _write_designs([spec], run_dir / "warmup"),
                        str(run_dir / "warmup-store"))
    else:
        warm = call_api(next(r for r in sequence if cold_digests.get(r["id"])),
                        paths, str(store))
    if not warm["ok"]:
        raise RuntimeError(f"warm-up compare failed: {warm['error']}")
    if args.setup_only:
        return {"t_ready": time.monotonic()}

    def loop() -> dict:
        return _closed_loop(
            sequence, lambda req: [call_api(req, paths, str(store))],
            MAX_STRETCH * args.seconds)

    layer_out: dict[str, Any] = {}
    if args.trace:
        out, layer_out = _traced(loop)
    else:
        out = loop()
    out["peak_rss_mb"] = _peak_rss_mb(resource.RUSAGE_SELF)
    out["layers"] = layer_out
    out["cold_digests"] = cold_digests
    return out


def fill(args: argparse.Namespace) -> dict:
    """warm-replay set-up: run every request cold, remember the results."""
    run_dir = Path(args.dir)
    designs, setup, _ = workloads.warm_replay(args.seed, args.seconds)
    paths = _write_designs(designs, run_dir / "designs")
    store = run_dir / "store"
    records = [call_api(req, paths, str(store)) for req in setup]
    digests = {r["id"]: r.get("digest") for r in records}
    (run_dir / "setup.json").write_text(
        json.dumps({"paths": paths, "digests": digests}))
    return {"records": records}


# -- serve-mix ----------------------------------------------------------------


async def _post(daemon: Any, req: dict, paths: dict[str, str],
                trace: bool) -> dict:
    from client import request

    path = f"/v1/{req['kind']}" + ("?trace=1" if trace else "")
    start = time.perf_counter()
    try:
        status, env = await request(daemon.host, daemon.port, "POST", path,
                                    _payload(req, paths))
    except (OSError, ValueError) as exc:
        return _record(req, time.perf_counter() - start, None,
                       f"{type(exc).__name__}: {exc}")
    latency = time.perf_counter() - start
    if status != 200 or env.get("status") != "ok":
        return _record(req, latency, None,
                       f"HTTP {status}: {env.get('error', env)}")
    rec = _record(req, latency, env["result"], None)
    rec.update(cached=bool(env.get("cached")),
               coalesced=bool(env.get("coalesced")),
               elapsed_s=float(env.get("elapsed_s", 0.0)))
    if trace and env.get("trace") is not None:
        rec["trace"] = env["trace"]
    return rec


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _serve_layers(records: list[dict], before: dict, after: dict) -> dict:
    """Per-layer metrics of the timed phase of a traced serve-mix run."""
    start = layers.counter_values(before["metrics"]["metrics"])
    counters = {k: v - start.get(k, 0.0) for k, v in
                layers.counter_values(after["metrics"]["metrics"]).items()}
    traces = [r["trace"]["records"] for r in records if r.get("trace")]
    metrics = layers.layer_metrics(traces, counters)
    s0, s1 = before["stats"], after["stats"]

    def stat(name: str) -> float:
        return float(s1["counters"].get(name, 0) - s0["counters"].get(name, 0))

    requests = sum(stat(k) for k in s1["counters"] if k.startswith("requests."))
    hits = stat("response_cache_hits")
    coalesced = counters.get("serve.coalesced", 0.0)
    queue_waits = []
    for r in records:
        if r.get("trace"):
            spans = [s["dur_s"] for s in r["trace"]["records"]
                     if s["name"] == "serve.request"]
            if spans:
                queue_waits.append(r["elapsed_s"] - spans[0])
    overheads = [r["latency_s"] - r["elapsed_s"] for r in records if r["ok"]]
    metrics.update({
        "serve.requests": requests,
        "serve.response_cache_hits": hits,
        "serve.coalesced": coalesced,
        "serve.computations": counters.get("serve.computations", 0.0),
        "serve.pool_submitted": float(s1["pool"]["submitted"]
                                      - s0["pool"]["submitted"]),
        "serve.no_compute_ratio": (hits + coalesced) / requests
        if requests else 0.0,
        "serve.queue_wait_ms": 1e3 * _mean(queue_waits),
        "serve.daemon_overhead_ms": 1e3 * _mean(overheads),
    })
    return metrics


def measure_serve(args: argparse.Namespace) -> dict:
    from client import Daemon, get, request

    run_dir = Path(args.dir)
    designs, setup, rounds = workloads.serve_mix(args.seed, args.seconds)
    paths = _write_designs(designs, run_dir / "designs")
    daemon = Daemon(Path.cwd(), run_dir / "store", dict(os.environ),
                    traced=args.trace)
    out: dict[str, Any] = {}
    try:
        for req in setup:
            status, body = asyncio.run(request(
                daemon.host, daemon.port, "POST", f"/v1/{req['kind']}",
                _payload(req, paths)))
            if status != 200 or body.get("status") != "ok":
                raise RuntimeError(f"serve-mix set-up {req['id']} failed: "
                                   f"HTTP {status} {body}")
        if args.setup_only:
            return {"t_ready": time.monotonic()}
        before = ({"stats": get(daemon, "/v1/stats"),
                   "metrics": get(daemon, "/v1/metrics")}
                  if args.trace else {})

        async def pair(items: list[dict]) -> list[dict]:
            return list(await asyncio.gather(*[
                _post(daemon, req, paths, args.trace) for req in items]))

        out = _closed_loop(rounds, lambda items: asyncio.run(pair(items)),
                           MAX_STRETCH * args.seconds)
        if args.trace:
            after = {"stats": get(daemon, "/v1/stats"),
                     "metrics": get(daemon, "/v1/metrics")}
            out["layers"] = {
                "metrics": _serve_layers(out["records"], before, after),
                "missing_probes": layers.missing_targets()}
            for r in out["records"]:
                r.pop("trace", None)
    finally:
        code = daemon.stop()
    if code != 0:
        raise RuntimeError(f"repro serve exited {code}: "
                           + daemon.output[-2000:])
    out["peak_rss_mb"] = _peak_rss_mb(resource.RUSAGE_CHILDREN)
    return out


# -- verifier pass --------------------------------------------------------------


def verify(args: argparse.Namespace) -> dict:
    """Re-run a sample in-process with the verifier on; compare digests.

    The flow verifier (``REPRO_VERIFY_FLOWS``, set by ``run.py``) runs
    DRC/ERC and the engine oracle on every flow; a violation raises and
    is reported here as an error.
    """
    run_dir = Path(args.dir)
    measured = json.loads(Path(args.measured).read_text())
    digests = {r["id"]: r.get("digest") for r in measured["records"]
               if r["ok"]}
    if args.workload == "warm-replay":
        # The stored results themselves: the runner verifies every cell
        # it loads while REPRO_VERIFY_FLOWS is set.
        setup = json.loads((run_dir / "setup.json").read_text())
        paths, store = setup["paths"], run_dir / "store"
        digests = {**digests, **setup["digests"]}
        _, requests, _ = workloads.warm_replay(args.seed, args.seconds)
    else:
        # A fresh store: the same request computed cold, in-process.
        store = run_dir / "verify-store"
        if args.workload == "cold-compare":
            designs, requests = workloads.cold_compare(args.seed, args.seconds)
        else:
            designs, _, rounds = workloads.serve_mix(args.seed, args.seconds)
            requests = [req for items in rounds for req in items]
    # The first successful request of each kind.
    sample: dict[str, dict] = {}
    for req in requests:
        if digests.get(req["id"]):
            sample.setdefault(req["kind"], req)
    if args.workload != "warm-replay":
        needed = {req["design"] for req in sample.values()}
        paths = _write_designs([d for d in designs if d["name"] in needed],
                               run_dir / "verify-designs")
    checked = [call_api(req, paths, str(store)) for req in sample.values()]
    return {"checked": len(checked),
            "errors": [f"{r['id']}: {r['error']}" for r in checked
                       if not r["ok"]],
            "mismatches": [r["id"] for r in checked
                           if r["ok"] and r["digest"] != digests.get(r["id"])]}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("phase", choices=("fill", "measure", "verify"))
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--measured", default="")
    args = parser.parse_args(argv)
    if args.phase == "fill":
        out = fill(args)
    elif args.phase == "verify":
        out = verify(args)
    elif args.workload == "serve-mix":
        out = measure_serve(args)
    else:
        out = measure_in_process(args)
    Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
