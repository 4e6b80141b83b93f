"""Scaling benchmark — sparse batched engine vs dense per-stage kernels.

The point of the ``numpy-sparse`` backend is to hold the analysis-engine
speedup when designs outgrow the per-stage dense kernels: 16k–64k sinks
mean thousands of stages, and a Python loop over per-stage numpy calls
drowns the vectorisation.  This benchmark climbs the size ladder
(ckt1024 → ckt4096 → ckt16384), measures each backend's engine compile
+ full analysis + one optimizer iteration in a *subprocess* (so
``ru_maxrss`` is a clean per-backend high-water mark, not polluted by
the parent's design build), and records the results in
``BENCH_scaling.json`` at the repo root.

The physical build itself (CTS + route + trim + extract) is backend-
independent; the parent builds each rung once and ships it to the
children via pickle.

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
BACKENDS = ("numpy-dense", "numpy-sparse")

#: Per-rung memo so the smoke test and the ladder test share one build.
_RUNG_CACHE: dict[str, dict] = {}


# -- child: one backend, one design, measured in isolation --------------------


def _child_main(pickle_path: str, backend_name: str) -> None:
    """Measure one backend on one pre-built design; JSON on stdout."""
    import time

    from repro import obs
    from repro.core.optimizer import SmartNdrOptimizer
    from repro.core.targets import RobustnessTargets
    from repro.engine import AnalysisEngine
    from repro.reliability.em import DEFAULT_EM_FACTOR

    with open(pickle_path, "rb") as fh:
        physical = pickle.load(fh)
    tech = physical.tech
    freq = physical.design.clock_freq
    targets = RobustnessTargets.for_period(physical.design.clock_period,
                                           tech.max_slew)

    t0 = time.perf_counter()
    engine = AnalysisEngine(physical.extraction, physical.tree, tech,
                            freq, targets, backend=backend_name)
    compile_s = time.perf_counter() - t0
    kernel = engine.kernel

    def sweep(fn, reps=3):
        """Best-of-N full-sweep time (caches dropped before each rep)."""
        best = float("inf")
        for _ in range(reps):
            kernel.invalidate_caches()
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    static_s = sweep(lambda: kernel.static_timing(tech))
    xtalk_s = sweep(lambda: kernel.crosstalk(alignment=targets.alignment))
    em_s = sweep(lambda: kernel.em(tech.vdd, freq,
                                   em_factor=DEFAULT_EM_FACTOR))
    mc_s = sweep(lambda: kernel.monte_carlo(engine.frozen), reps=2)
    analyze_s = static_s + xtalk_s + em_s + mc_s

    t0 = time.perf_counter()
    opt = SmartNdrOptimizer(physical.tree, physical.routing, tech,
                            targets, freq, max_iterations=1,
                            use_engine=backend_name)
    opt.run(physical.extraction)
    opt_iter_s = time.perf_counter() - t0

    json.dump({
        "backend": backend_name,
        "compile_s": round(compile_s, 4),
        "static_s": round(static_s, 4),
        "xtalk_s": round(xtalk_s, 4),
        "em_s": round(em_s, 4),
        "mc_s": round(mc_s, 4),
        "analyze_s": round(analyze_s, 4),
        "opt_iter_s": round(opt_iter_s, 4),
        "total_s": round(compile_s + analyze_s + opt_iter_s, 4),
        "peak_rss_bytes": obs.peak_rss_bytes(),
    }, sys.stdout)


if __name__ == "__main__":
    _child_main(sys.argv[1], sys.argv[2])
    sys.exit(0)


# -- parent: build once, fan out per backend ----------------------------------


def _repo_env() -> dict[str, str]:
    import repro

    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _run_rung(design_name: str) -> dict:
    """Build one ladder rung, then measure every backend on it."""
    if design_name in _RUNG_CACHE:
        return _RUNG_CACHE[design_name]
    from repro.bench import generate_design, spec_by_name
    from repro.core.flow import build_physical_design
    from repro.tech import default_technology

    spec = spec_by_name(design_name)
    physical = build_physical_design(generate_design(spec),
                                     default_technology())
    n_stages = len(physical.extraction.network.stages)

    backends = {}
    with tempfile.TemporaryDirectory(prefix="repro-scaling-") as tmp:
        pkl = os.path.join(tmp, f"{design_name}.pkl")
        with open(pkl, "wb") as fh:
            pickle.dump(physical, fh, protocol=pickle.HIGHEST_PROTOCOL)
        for backend in BACKENDS:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), pkl, backend],
                capture_output=True, text=True, env=_repo_env(), check=False)
            assert proc.returncode == 0, \
                f"{design_name}/{backend} child failed:\n{proc.stderr}"
            backends[backend] = json.loads(proc.stdout)

    dense, sparse = backends["numpy-dense"], backends["numpy-sparse"]
    # The re-rank sweep (static timing + crosstalk) is what the
    # optimizer recomputes after every candidate churn — the hot loop
    # the batched arenas were built for.  The full-bundle ratio is
    # floored by work both backends share (result-object construction,
    # the Monte-Carlo matrix FLOPs), so it is recorded separately.
    rerank_speedup = ((dense["static_s"] + dense["xtalk_s"])
                      / max(sparse["static_s"] + sparse["xtalk_s"], 1e-9))
    analyze_speedup = dense["analyze_s"] / max(sparse["analyze_s"], 1e-9)
    rung = {
        "design": design_name,
        "n_sinks": spec.n_sinks,
        "n_stages": n_stages,
        "backends": backends,
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

    lines = [f"{rung['design']} ({rung['n_sinks']} sinks, "
             f"{rung['n_stages']} stages): "
             f"re-rank speedup {rung['rerank_speedup']:.1f}x, "
             f"full-bundle {rung['analyze_speedup']:.1f}x"]
    for name, r in rung["backends"].items():
        lines.append(
            f"  {name:<12} compile {r['compile_s']:.3f}s  "
            f"static {r['static_s']:.3f}s  xtalk {r['xtalk_s']:.3f}s  "
            f"em {r['em_s']:.3f}s  mc {r['mc_s']:.3f}s  "
            f"opt-iter {r['opt_iter_s']:.3f}s  "
            f"peak-rss {r['peak_rss_bytes'] / 1e6:.0f}MB")
    emit(capsys, "\n".join(lines))


# -- the ladder ---------------------------------------------------------------


def test_scaling_smoke_ckt1024(capsys):
    """CI rung: the sparse backend beats dense already at 1k sinks."""
    rung = _run_rung("ckt1024")
    _emit_rung(capsys, rung)
    sparse = rung["backends"]["numpy-sparse"]
    assert rung["rerank_speedup"] >= 2.0, rung
    assert rung["analyze_speedup"] >= 1.0, rung
    # Wall budget: this rung must stay cheap enough for every-PR CI.
    assert sparse["total_s"] < 30.0, rung


def test_scaling_speedup_holds_at_ckt4096(capsys):
    """The tentpole claim: ≥5x re-rank speedup at 4k sinks, sub-quadratic RSS."""
    small = _run_rung("ckt1024")
    large = _run_rung("ckt4096")
    _emit_rung(capsys, large)
    assert large["rerank_speedup"] >= 5.0, large
    assert large["analyze_speedup"] >= 1.0, large

    # Peak RSS must grow sub-quadratically in sink count (dense
    # membership/incidence matrices were the quadratic term this PR
    # removed).  16x sinks => far less than 256x memory; the interpreter
    # floor makes the observed ratio much smaller still.
    ratio = (large["backends"]["numpy-sparse"]["peak_rss_bytes"]
             / max(small["backends"]["numpy-sparse"]["peak_rss_bytes"], 1))
    size_ratio = large["n_sinks"] / small["n_sinks"]
    assert ratio < size_ratio ** 2, (small, large)


@pytest.mark.slow
def test_scaling_holds_at_ckt16384(capsys):
    """16k sinks: compile + full analysis + one optimizer iteration < 60 s."""
    rung = _run_rung("ckt16384")
    _emit_rung(capsys, rung)
    sparse = rung["backends"]["numpy-sparse"]
    assert sparse["total_s"] < 60.0, rung
    assert rung["rerank_speedup"] >= 5.0, rung
