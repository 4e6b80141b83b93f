"""Per-layer probes and the per-layer metrics of a traced run.

The program already emits spans and counters at some layer boundaries
(``flow.*``, ``opt.*``, ``engine.*``, ``runner.*``, ``artifacts.*``,
``serve.*``).  The layers with no spans of their own (design
resolution, CTS, routing, extraction, the optimizer entry point and
the artifact store) are measured from here: :func:`install` wraps
their public functions in place, in this process and in any worker it
forks later, so each call records a ``perfbench.<layer>`` span plus
call, second, failure and byte counters under :mod:`repro.obs`.  No
program module changes; an uninstalled probe target is reported, not
guessed.

:func:`layer_metrics` folds span records and a metrics snapshot into
the per-layer metric names of ``BENCHMARK.json``.  Layer seconds are a
breakdown, not a partition: the extraction a skew refine runs counts
in ``extract.full_s`` and in ``cts.refine_s``, and the optimizer's
refines, extractions and engine sweeps also in ``opt.run_s``.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Any, Callable, Iterable, Optional

from stats import self_time

#: probe name -> the (module, attribute path) bindings it wraps.  A
#: function imported by name into several modules is wrapped once and
#: rebound at every site, so every caller goes through the probe.
PROBES: dict[str, tuple[tuple[str, str], ...]] = {
    "designs.resolve": (("repro.runner.runner", "resolve_design"),),
    "cts.synthesize": (("repro.core.stages", "synthesize_clock_tree"),),
    "cts.refine": (("repro.core.stages", "refine_skew"),
                   ("repro.core.optimizer", "refine_skew")),
    "route": (("repro.route.router", "Router.route"),),
    "extract.full": (("repro.core.optimizer", "extract"),
                     ("repro.cts.refine", "extract")),
    "extract.incremental": (
        ("repro.engine.incremental", "incremental_re_extract"),
        ("repro.extract.extractor", "incremental_re_extract")),
    "opt.run": (("repro.core.optimizer", "SmartNdrOptimizer.run"),),
    "store.load": (("repro.io.artifacts", "ArtifactStore.load"),),
    "store.save": (("repro.io.artifacts", "ArtifactStore.save"),),
}


def _artifact_bytes(store: Any, key: str) -> int:
    try:
        return int(store.path_for(key).stat().st_size)
    except OSError:
        return 0


def _after(name: str, args: tuple, result: Any) -> dict[str, float]:
    """Extra counters a probe records from its call's outcome."""
    if name == "store.load":
        if result is None:
            return {}
        return {"hits": 1.0, "bytes": float(_artifact_bytes(*args[:2]))}
    if name == "store.save":
        return {"bytes": float(_artifact_bytes(*args[:2]))}
    if name == "opt.run":
        return {"upgraded": float(result.num_upgraded)}
    return {}


def _probe(name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    from repro import obs

    @functools.wraps(fn)
    def probe(*args: Any, **kwargs: Any) -> Any:
        start = time.perf_counter()
        extra: dict[str, float] = {}
        failed = True
        try:
            with obs.span(f"perfbench.{name}"):
                result = fn(*args, **kwargs)
            extra = _after(name, args, result)
            failed = False
            return result
        finally:
            obs.counter(f"perfbench.{name}.calls").inc()
            obs.counter(f"perfbench.{name}.seconds").inc(
                time.perf_counter() - start)
            if failed:
                obs.counter(f"perfbench.{name}.failures").inc()
            for key, value in extra.items():
                obs.counter(f"perfbench.{name}.{key}").inc(value)

    probe.__perfbench_probe__ = name  # type: ignore[attr-defined]
    return probe


def _target(module_name: str, path: str) -> Optional[tuple[Any, str, Any]]:
    """(owner, attribute, current value) of one binding, or ``None``."""
    try:
        owner: Any = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        return owner, attr, getattr(owner, attr)
    except (ImportError, AttributeError):
        return None


def missing_targets() -> list[str]:
    """Probe bindings this version of the program does not have."""
    return [f"{module_name}.{path}" for sites in PROBES.values()
            for module_name, path in sites
            if _target(module_name, path) is None]


def install() -> list[str]:
    """Wrap every probe target; returns the targets that were missing."""
    wrapped: dict[int, Callable[..., Any]] = {}
    for name, sites in PROBES.items():
        for module_name, path in sites:
            found = _target(module_name, path)
            if found is None:
                continue
            owner, attr, fn = found
            if getattr(fn, "__perfbench_probe__", None):
                continue
            if id(fn) not in wrapped:
                wrapped[id(fn)] = _probe(name, fn)
            setattr(owner, attr, wrapped[id(fn)])
    return missing_targets()


#: Program spans summed into per-layer seconds (and, where named,
#: counted into calls).
_SPAN_SECONDS = {
    "engine.compile_s": "engine.compile",
    "engine.static_timing_s": "engine.static_timing",
    "engine.crosstalk_s": "engine.crosstalk",
    "engine.em_s": "engine.em",
    "engine.monte_carlo_s": "engine.monte_carlo",
    "flow.build_s": "flow.build",
    "flow.policy_s": "flow.policy",
    "flow.retrim_s": "flow.retrim",
    "flow.analyze_s": "flow.analyze",
    "opt.plan_s": "opt.plan",
}
_SPAN_CALLS = {"engine.compile_calls": "engine.compile"}

#: Daemon metrics; only serve-mix fills them in (from ``/v1/stats``,
#: ``/v1/metrics`` and the responses).
SERVE_METRICS = ("serve.requests", "serve.response_cache_hits",
                 "serve.coalesced", "serve.computations",
                 "serve.pool_submitted", "serve.no_compute_ratio",
                 "serve.queue_wait_ms", "serve.daemon_overhead_ms")

#: Probe and program counters copied into per-layer metrics.
_COUNTERS = {
    "designs.resolve_calls": "perfbench.designs.resolve.calls",
    "designs.resolve_s": "perfbench.designs.resolve.seconds",
    "cts.synthesize_s": "perfbench.cts.synthesize.seconds",
    "cts.refine_calls": "perfbench.cts.refine.calls",
    "cts.refine_s": "perfbench.cts.refine.seconds",
    "route.calls": "perfbench.route.calls",
    "route.failures": "perfbench.route.failures",
    "route.route_s": "perfbench.route.seconds",
    "extract.full_calls": "perfbench.extract.full.calls",
    "extract.full_s": "perfbench.extract.full.seconds",
    "extract.incremental_calls": "perfbench.extract.incremental.calls",
    "opt.run_s": "perfbench.opt.run.seconds",
    "opt.iterations": "opt.iterations",
    "opt.upgraded_wires": "perfbench.opt.run.upgraded",
    "store.load_calls": "perfbench.store.load.calls",
    "store.load_s": "perfbench.store.load.seconds",
    "store.load_bytes": "perfbench.store.load.bytes",
    "store.save_calls": "perfbench.store.save.calls",
    "store.save_s": "perfbench.store.save.seconds",
    "store.save_bytes": "perfbench.store.save.bytes",
    "runner.cells_computed": "runner.cells_computed",
    "runner.cells_cached": "runner.cells_cached",
}


def counter_values(exported: dict[str, dict[str, Any]]) -> dict[str, float]:
    """Counter name -> value from a :meth:`MetricsRegistry.export`."""
    return {name: float(entry["value"]) for name, entry in exported.items()
            if entry.get("kind") == "counter"}


def layer_metrics(traces: Iterable[list[dict]],
                  counters: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics from span records and counter values.

    ``traces`` holds the span dicts of each trace (ids are unique
    within one trace only); ``counters`` the summed counter values of
    the same period.  Every metric is present; a layer the workload
    bypasses reads zero.
    """
    out = {name: counters.get(source, 0.0)
           for name, source in _COUNTERS.items()}
    loads = counters.get("perfbench.store.load.calls", 0.0)
    hits = counters.get("perfbench.store.load.hits", 0.0)
    out["store.hit_ratio"] = hits / loads if loads else 0.0
    for name in (*_SPAN_SECONDS, *_SPAN_CALLS):
        out[name] = 0.0
    out["runner.cell_self_s"] = 0.0
    out.update(dict.fromkeys(SERVE_METRICS, 0.0))
    for records in traces:
        for r in records:
            for metric, span in _SPAN_SECONDS.items():
                if r["name"] == span:
                    out[metric] += r["dur_s"]
            for metric, span in _SPAN_CALLS.items():
                if r["name"] == span:
                    out[metric] += 1
            if r["name"] == "runner.cell":
                out["runner.cell_self_s"] += self_time(records, r["id"])
    return out


def span_dicts(tracer: Any) -> list[dict]:
    """The finished span records of an in-process tracer, as dicts."""
    return [r.as_dict() for r in tracer.records if r.duration_s is not None]
