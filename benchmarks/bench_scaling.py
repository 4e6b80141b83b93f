"""Scaling benchmark — the batched engine vs the reference analyzers.

The point of the batched engine (:mod:`repro.engine.batched`) is to hold
its speedup over the from-scratch reference analyzers
(``analyze_clock_timing``, ``analyze_crosstalk``, ``analyze_em``,
``run_monte_carlo``) as designs grow: 16k–64k sinks mean thousands of
stages, and per-stage Python work drowns the vectorisation.  This
benchmark climbs the size ladder (ckt1024 → ckt4096 → ckt16384).  For
each rung one *subprocess* measures the engine's compile, full
analysis and one optimizer iteration, reads its peak RSS (so
``ru_maxrss`` is a clean engine high-water mark, not polluted by the
parent's design build), then times the reference analyzers on the same
extraction as the comparator.  Results land in ``BENCH_scaling.json``
at the repo root.

The parent builds each rung once (CTS + route + trim + extract) and
ships it to the child via pickle.

Run the full ladder with ``pytest benchmarks/bench_scaling.py``; the
ckt16384 rung is opt-in via ``-m slow`` (it builds for ~40 s before the
timed section starts).
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

SCALING_JSON = Path(__file__).resolve().parent.parent / "BENCH_scaling.json"

#: Per-rung memo so the smoke test and the ladder test share one build.
_RUNG_CACHE: dict[str, dict] = {}


# -- child: one design, engine then reference, measured in isolation ----------


def _best_of(fn, reps=3, reset=None):
    """Best-of-N wall time of ``fn`` (``reset`` runs untimed before each)."""
    import time

    best = float("inf")
    for _ in range(reps):
        if reset is not None:
            reset()
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _child_main(pickle_path: str) -> None:
    """Measure the engine, then the reference, on one design; JSON out."""
    import time

    from repro import obs
    from repro.core.optimizer import SmartNdrOptimizer
    from repro.core.targets import RobustnessTargets
    from repro.engine import AnalysisEngine
    from repro.reliability.em import DEFAULT_EM_FACTOR, analyze_em
    from repro.timing.arrival import analyze_clock_timing
    from repro.timing.crosstalk import analyze_crosstalk
    from repro.timing.montecarlo import run_monte_carlo

    with open(pickle_path, "rb") as fh:
        physical = pickle.load(fh)
    tech = physical.tech
    freq = physical.design.clock_freq
    extraction = physical.extraction
    targets = RobustnessTargets.for_period(physical.design.clock_period,
                                           tech.max_slew)

    t0 = time.perf_counter()
    engine = AnalysisEngine(extraction, physical.tree, tech, freq, targets)
    compile_s = time.perf_counter() - t0
    kernel = engine.kernel

    def sweep(fn, reps=3):
        """Best-of-N full-sweep time (caches dropped before each rep)."""
        return _best_of(fn, reps, reset=kernel.invalidate_caches)

    eng = {
        "compile_s": compile_s,
        "static_s": sweep(lambda: kernel.static_timing(tech)),
        "xtalk_s": sweep(
            lambda: kernel.crosstalk(alignment=targets.alignment)),
        "em_s": sweep(lambda: kernel.em(tech.vdd, freq,
                                        em_factor=DEFAULT_EM_FACTOR)),
        "mc_s": sweep(lambda: kernel.monte_carlo(engine.frozen), reps=2),
    }
    eng["analyze_s"] = (eng["static_s"] + eng["xtalk_s"] + eng["em_s"]
                        + eng["mc_s"])

    t0 = time.perf_counter()
    opt = SmartNdrOptimizer(physical.tree, physical.routing, tech,
                            targets, freq, max_iterations=1)
    opt.run(extraction)
    eng["opt_iter_s"] = time.perf_counter() - t0
    eng["total_s"] = eng["compile_s"] + eng["analyze_s"] + eng["opt_iter_s"]
    # Read before the reference runs, so the high-water mark is the
    # engine's alone.
    peak_rss = obs.peak_rss_bytes()

    # The optimizer iteration moved rules in place; the reference times
    # the same post-iteration extraction the engine now wraps.
    network, wires = extraction.network, extraction.wires
    ref = {
        "static_s": _best_of(lambda: analyze_clock_timing(network, tech)),
        "xtalk_s": _best_of(lambda: analyze_crosstalk(
            network, wires, alignment=targets.alignment)),
        "em_s": _best_of(lambda: analyze_em(
            network, extraction.routing, tech.vdd, freq,
            em_factor=DEFAULT_EM_FACTOR)),
        "mc_s": _best_of(lambda: run_monte_carlo(
            network, wires, extraction.routing, tech,
            n_samples=targets.mc_samples, seed=targets.mc_seed), reps=2),
    }
    ref["analyze_s"] = (ref["static_s"] + ref["xtalk_s"] + ref["em_s"]
                        + ref["mc_s"])

    json.dump({
        "engine": {**{k: round(v, 4) for k, v in eng.items()},
                   "peak_rss_bytes": peak_rss},
        "reference": {k: round(v, 4) for k, v in ref.items()},
    }, sys.stdout)


if __name__ == "__main__":
    _child_main(sys.argv[1])
    sys.exit(0)


# -- parent: build once, measure in a child -----------------------------------


def _repo_env() -> dict[str, str]:
    import repro

    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _run_rung(design_name: str) -> dict:
    """Build one ladder rung, then measure engine and reference on it."""
    if design_name in _RUNG_CACHE:
        return _RUNG_CACHE[design_name]
    from repro.designs import generate_design, spec_by_name
    from repro.core.flow import build_physical_design
    from repro.tech import default_technology

    spec = spec_by_name(design_name)
    physical = build_physical_design(generate_design(spec),
                                     default_technology())
    n_stages = len(physical.extraction.network.stages)

    with tempfile.TemporaryDirectory(prefix="repro-scaling-") as tmp:
        pkl = os.path.join(tmp, f"{design_name}.pkl")
        with open(pkl, "wb") as fh:
            pickle.dump(physical, fh, protocol=pickle.HIGHEST_PROTOCOL)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), pkl],
            capture_output=True, text=True, env=_repo_env(), check=False)
    assert proc.returncode == 0, \
        f"{design_name} child failed:\n{proc.stderr}"
    measured = json.loads(proc.stdout)

    eng, ref = measured["engine"], measured["reference"]
    # The re-rank sweep (static timing + crosstalk) is what the
    # optimizer recomputes after every candidate churn — the hot loop
    # the batched arenas were built for.  The full-bundle ratio is
    # floored by work both sides share (result-object construction,
    # the Monte-Carlo matrix FLOPs), so it is recorded separately.
    rerank_speedup = ((ref["static_s"] + ref["xtalk_s"])
                      / max(eng["static_s"] + eng["xtalk_s"], 1e-9))
    analyze_speedup = ref["analyze_s"] / max(eng["analyze_s"], 1e-9)
    rung = {
        "design": design_name,
        "n_sinks": spec.n_sinks,
        "n_stages": n_stages,
        "engine": eng,
        "reference": ref,
        "rerank_speedup": round(rerank_speedup, 2),
        "analyze_speedup": round(analyze_speedup, 2),
    }
    _RUNG_CACHE[design_name] = rung
    _record(rung)
    return rung


def _record(rung: dict) -> None:
    """Merge one rung into ``BENCH_scaling.json`` (keyed by design)."""
    payload = {}
    if SCALING_JSON.exists():
        payload = json.loads(SCALING_JSON.read_text(encoding="utf-8"))
    rungs = {r["design"]: r for r in payload.get("rungs", [])}
    rungs[rung["design"]] = rung
    payload["rungs"] = sorted(rungs.values(), key=lambda r: r["n_sinks"])
    SCALING_JSON.write_text(json.dumps(payload, indent=2) + "\n",
                            encoding="utf-8")


def _emit_rung(capsys, rung: dict) -> None:
    from conftest import emit

    eng, ref = rung["engine"], rung["reference"]
    emit(capsys, "\n".join([
        f"{rung['design']} ({rung['n_sinks']} sinks, "
        f"{rung['n_stages']} stages): "
        f"re-rank speedup {rung['rerank_speedup']:.1f}x, "
        f"full-bundle {rung['analyze_speedup']:.1f}x",
        f"  engine     compile {eng['compile_s']:.3f}s  "
        f"static {eng['static_s']:.3f}s  xtalk {eng['xtalk_s']:.3f}s  "
        f"em {eng['em_s']:.3f}s  mc {eng['mc_s']:.3f}s  "
        f"opt-iter {eng['opt_iter_s']:.3f}s  "
        f"peak-rss {eng['peak_rss_bytes'] / 1e6:.0f}MB",
        f"  reference  static {ref['static_s']:.3f}s  "
        f"xtalk {ref['xtalk_s']:.3f}s  em {ref['em_s']:.3f}s  "
        f"mc {ref['mc_s']:.3f}s"]))


# -- the ladder ---------------------------------------------------------------


def test_scaling_smoke_ckt1024(capsys):
    """CI rung: the engine beats the reference already at 1k sinks."""
    rung = _run_rung("ckt1024")
    _emit_rung(capsys, rung)
    assert rung["rerank_speedup"] >= 2.0, rung
    assert rung["analyze_speedup"] >= 1.0, rung
    # Wall budget: this rung must stay cheap enough for every-PR CI.
    assert rung["engine"]["total_s"] < 30.0, rung


def test_scaling_speedup_holds_at_ckt4096(capsys):
    """4k sinks: ≥5x re-rank speedup over the reference, sub-quadratic RSS."""
    small = _run_rung("ckt1024")
    large = _run_rung("ckt4096")
    _emit_rung(capsys, large)
    assert large["rerank_speedup"] >= 5.0, large
    assert large["analyze_speedup"] >= 1.0, large

    # Peak RSS must grow sub-quadratically in sink count (dense
    # membership/incidence matrices would be the quadratic term).  4x
    # sinks => far less than 16x memory; the interpreter floor makes the
    # observed ratio much smaller still.
    ratio = (large["engine"]["peak_rss_bytes"]
             / max(small["engine"]["peak_rss_bytes"], 1))
    size_ratio = large["n_sinks"] / small["n_sinks"]
    assert ratio < size_ratio ** 2, (small, large)


@pytest.mark.slow
def test_scaling_holds_at_ckt16384(capsys):
    """16k sinks: compile + full analysis + one optimizer iteration < 60 s."""
    rung = _run_rung("ckt16384")
    _emit_rung(capsys, rung)
    assert rung["engine"]["total_s"] < 60.0, rung
    assert rung["rerank_speedup"] >= 5.0, rung
