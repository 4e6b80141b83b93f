#!/usr/bin/env python3
"""Benchmark of the smart-NDR flow through its real entry points.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold-compare --seed 0 --seconds 20 --trace 0

Workloads (``perfbench/catalog.json`` records why each was chosen, its
loop and clients, the layers it stresses and bypasses):

* ``cold-compare`` — ``repro.api.compare`` in-process on distinct
  designs against an empty store;
* ``warm-replay`` — the compares and sweeps set-up ran, replayed
  in-process against the store set-up filled;
* ``serve-mix`` — misses, response-cache hits and coalesced pairs sent
  to a ``repro serve --workers 1`` daemon on two connections.

Every phase runs in a fresh interpreter with a pinned environment, one
computing process at a time.  The command prints a table of every
metric with its unit and better direction, a diagnostics line, and as
its last line one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.  The traced
run repeats the timed loop with the layer probes on, so
``trace.overhead_pct`` compares it with the untraced loop of the same
invocation.

``--write-expected`` stores the run's result digests as the expected
ones in ``perfbench/expected.json`` (default seed only).
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from stats import latencies, median, quantile, ratio  # noqa: E402

#: Wall-clock budget of one invocation; children are killed past it.
RUN_BUDGET_S = 170.0
#: The first invocation in a checkout also compiles the byte code.
FIRST_RUN_BUDGET_S = 880.0

#: Variables that would change what the program computes or how many
#: threads it uses; children never inherit them.
UNSET_ENV = ("REPRO_VERIFY_FLOWS", "REPRO_ENGINE_BACKEND",
             "REPRO_CACHE_MAX_BYTES", "PYTHONPATH", "PYTHONSTARTUP")


class BenchError(RuntimeError):
    """A phase failed in a way that leaves no result to report."""


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop: a host-speed diagnostic."""
    start = time.perf_counter()
    total = 0
    for i in range(400_000):
        total += i * i % 7
    return time.perf_counter() - start


def child_env(root: Path, run_dir: Path, verify: bool = False
              ) -> dict[str, str]:
    """The pinned environment of every child process."""
    env = {k: v for k, v in os.environ.items() if k not in UNSET_ENV}
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env.update(PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", REPRO_CACHE_DIR=str(run_dir / "cache"),
               TMPDIR=str(tmp))
    if verify:
        env["REPRO_VERIFY_FLOWS"] = "1"
    return env


class Runner:
    """Runs the child phases of one invocation inside its run dir."""

    def __init__(self, args: argparse.Namespace, root: Path,
                 run_dir: Path, deadline: float) -> None:
        self.args = args
        self.root = root
        self.run_dir = run_dir
        self.deadline = deadline
        self.calls = 0

    def child(self, phase: str, work: Path, *extra: str,
              verify: bool = False) -> tuple[dict, float, float]:
        """Run one phase; (its JSON output, spawn time, end time)."""
        self.calls += 1
        work.mkdir(parents=True, exist_ok=True)
        out = work / f"{phase}-{self.calls}.json"
        log = work / f"{phase}-{self.calls}.log"
        cmd = [sys.executable, str(HERE / "child.py"), phase,
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--seconds", str(self.args.seconds), "--dir", str(work),
               "--out", str(out), *extra]
        env = child_env(self.root, self.run_dir, verify=verify)
        with open(log, "w") as sink:
            spawned = time.monotonic()
            # Its own process group, so a kill also reaches the daemon
            # and worker a serve-mix child started.
            proc = subprocess.Popen(cmd, cwd=self.root, env=env,
                                    stdout=sink, stderr=subprocess.STDOUT,
                                    start_new_session=True)
            try:
                code = proc.wait(timeout=max(1.0, self.deadline
                                             - time.monotonic()))
            except subprocess.TimeoutExpired:
                raise BenchError(f"{phase} phase ran past the run budget")
            finally:
                if proc.poll() is None:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
            ended = time.monotonic()
        if code != 0:
            raise BenchError(f"{phase} phase exited {code}:\n"
                             + log.read_text()[-3000:])
        return json.loads(out.read_text()), spawned, ended

    def setup_and_measure(self, work: Path, trace: bool,
                          setup_only: bool = False) -> tuple[dict, float]:
        """Set up in ``work`` and (unless ``setup_only``) run the timed
        loop; returns (measure output, set-up seconds)."""
        fill_s = 0.0
        if self.args.workload == "warm-replay":
            _, spawned, ended = self.child("fill", work)
            fill_s = ended - spawned
        extra = (["--trace"] if trace else []) + \
            (["--setup-only"] if setup_only else [])
        out, spawned, _ = self.child("measure", work, *extra)
        return out, fill_s + (out["t_ready"] - spawned)


def _end_to_end(workload: str, out: dict, setup_samples: list[float]
                ) -> dict[str, Any]:
    """Every end-to-end metric of one measured run (None = no value)."""
    records = out["records"]
    ok = [r for r in records if r["ok"]]
    lat = latencies(records)
    metrics: dict[str, Any] = {
        "setup_s": median(setup_samples),
        "throughput_rps": len(ok) / out["elapsed_s"],
        "latency_p50_ms": 1e3 * quantile(lat, 0.5),
        "peak_rss_mb": out["peak_rss_mb"],
        "error_rate": ratio(len(records) - len(ok), len(records)),
    }
    p90 = quantile(lat, 0.9)
    metrics["latency_p90_ms"] = None if p90 is None else 1e3 * p90
    if workload == "serve-mix":
        hits = [r["latency_s"] for r in ok if r.get("cached")]
        metrics["hit_latency_p50_ms"] = 1e3 * median(hits) if hits else None
    if workload == "cold-compare":
        savings = [r["saving_pct"] for r in ok]
        metrics["power_saving_pct"] = (sum(savings) / len(savings)
                                       if savings else None)
        metrics["feasible_share"] = ratio(
            sum(1 for r in ok if r["smart_feasible"]), len(ok))
    return metrics


def _check(seed: int, out: dict, verified: dict, expected: dict,
           traced: Optional[dict] = None) -> tuple[bool, dict]:
    """Correctness of one measured run; (correct, diagnostics)."""
    problems: list[str] = []
    records = out["records"]
    rerun = traced["records"] if traced else []
    for r in records + rerun:
        if not r["ok"] and not r.get("error"):
            problems.append(f"{r['id']}: neither ok nor a reported failure")
    # Equal requests must give equal results: serve-mix hits and
    # coalesced pairs against the first answer, warm-replay against
    # the cold result set-up computed in-process, the traced loop
    # against the untraced one.
    first: dict[str, str] = dict(out.get("cold_digests") or {})
    for r in records + rerun:
        if r["ok"]:
            want = first.setdefault(r["id"], r["digest"])
            if want is not None and want != r["digest"]:
                problems.append(f"{r['id']}: result differs from the same "
                                f"request's earlier result")
    checked = 0
    if seed == workloads.DEFAULT_SEED:
        for r in records:
            want = expected.get(r["id"])
            if want is None or not r["ok"]:
                continue
            checked += 1
            if want.startswith("error:"):
                continue  # a request that failed before now succeeds
            if want != r["digest"]:
                problems.append(f"{r['id']}: digest {r['digest']} != "
                                f"expected {want}")
    problems += [f"verifier: {e}" for e in verified["errors"]]
    problems += [f"verifier: {m}: in-process cold result differs"
                 for m in verified["mismatches"]]
    diagnostics = {
        "expected_digests_checked": checked,
        "verified_in_process": verified["checked"],
        "failures": [f"{r['id']}: {r['error']}" for r in records
                     if not r["ok"]],
        "problems": problems,
    }
    return not problems, diagnostics


def _fmt(value: Any) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, dict):  # a ratio with its base
        shown = "n/a" if value["value"] is None else f"{value['value']:.4g}"
        return f"{shown} ({value['num']:g}/{value['den']:g})"
    return f"{value:.6g}"


def _table(rows: list[tuple[str, Any, str, str]]) -> str:
    width = max(len(name) for name, *_ in rows)
    return "\n".join(f"  {name:<{width}}  {_fmt(value):>24}  {unit:<6} "
                     f"{better} is better"
                     for name, value, unit, better in rows)


def run(args: argparse.Namespace, root: Path, bench: dict,
        catalog: dict) -> int:
    deadline = time.monotonic() + args.budget
    run_dir = root / ".perfbench" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    runner = Runner(args, root, run_dir, deadline)
    probe_before = host_probe()
    repeats = catalog["workloads"][args.workload]["setup_repeats"]
    setup_samples = [runner.setup_and_measure(run_dir / f"setup{i}",
                                              trace=False, setup_only=True)[1]
                     for i in range(repeats - 1)]
    work = run_dir / "run"
    out, setup_s = runner.setup_and_measure(work, trace=False)
    setup_samples.append(setup_s)
    measured = work / "measured.json"
    measured.write_text(json.dumps(out))
    verified, _, _ = runner.child("verify", work, "--measured",
                                  str(measured), verify=True)
    traced: Optional[dict] = None
    if args.trace and args.workload == "warm-replay":
        # Replays the store the untraced loop read; set-up stays cold.
        traced = runner.child("measure", work, "--trace")[0]
    elif args.trace:
        traced, _ = runner.setup_and_measure(run_dir / "traced", trace=True)
    probe_after = host_probe()

    expected_all = json.loads((HERE / "expected.json").read_text())
    expected = expected_all.get(args.workload, {})
    correct, diagnostics = _check(args.seed, out, verified, expected,
                                  traced)
    e2e = _end_to_end(args.workload, out, setup_samples)
    units = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    units.update({m["name"]: m for m in catalog["workload_metrics"]})
    shown = [m["name"] for m in bench["end_to_end"]] + \
        [m["name"] for m in catalog["workload_metrics"]
         if args.workload in m["workloads"]]
    print(f"perfbench {args.workload} seed={args.seed} "
          f"requests={len(out['records'])} elapsed={out['elapsed_s']:.2f}s")
    print(_table([(n, e2e.get(n), units[n]["unit"], units[n]["better"])
                  for n in shown]))
    diagnostics.update(
        host_probe_s=[probe_before, probe_after],
        setup_samples_s=setup_samples, truncated=out["truncated"],
        trace_truncated=bool(traced and traced["truncated"]))

    if args.trace:
        assert traced is not None
        layer = dict(traced["layers"]["metrics"])
        base = e2e["throughput_rps"]
        traced_rps = (sum(1 for r in traced["records"] if r["ok"])
                      / traced["elapsed_s"])
        layer["trace.overhead_pct"] = 100.0 * (base - traced_rps) / base
        diagnostics["missing_probes"] = traced["layers"]["missing_probes"]
        names = [m["name"] for m in bench["per_layer"]]
        print(_table([(n, layer[n], units[n]["unit"], units[n]["better"])
                      for n in names]))
        metrics = {n: {"value": layer[n], "unit": units[n]["unit"]}
                   for n in names}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}

    if args.write_expected:
        if args.seed != workloads.DEFAULT_SEED:
            raise BenchError("--write-expected needs the default seed")
        expected_all[args.workload] = {
            r["id"]: r["digest"] if r["ok"]
            else "error:" + r["error"].split(":")[0]
            for r in out["records"]}
        (HERE / "expected.json").write_text(
            json.dumps(expected_all, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"diagnostics": diagnostics}))
    shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"correct": correct,
                      "attempted": len(out["records"]),
                      "failed": sum(1 for r in out["records"]
                                    if not r["ok"]),
                      "metrics": metrics}))
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the smart-NDR flow end to end and per layer.")
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true")
    args = parser.parse_args(argv)
    # Exit through the finally blocks, which stop any running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no program source at src/repro; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text())
    catalog = json.loads((HERE / "catalog.json").read_text())
    first_run = not (root / "src" / "repro" / "__pycache__").is_dir()
    args.budget = FIRST_RUN_BUDGET_S if first_run else RUN_BUDGET_S
    # Compile once up front so no timed phase pays for byte code.
    if not compileall.compile_dir(str(root / "src"), quiet=1) or \
            not compileall.compile_dir(str(HERE), quiet=1):
        print("perfbench: byte-compiling the sources failed", file=sys.stderr)
        return 2
    try:
        return run(args, root, bench, catalog)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(root / ".perfbench" / f"{args.workload}-{os.getpid()}",
                      ignore_errors=True)
        try:
            (root / ".perfbench").rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
