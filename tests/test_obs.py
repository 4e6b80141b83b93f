"""Structured observability: spans, metrics, propagation."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.core import Policy
from repro.obs.export import (TraceSchemaError, export_jsonl, load_trace,
                              trace_digest)
from repro.obs.metrics import MetricsRegistry, NULL_METRIC
from repro.obs.report import render_trace_report
from repro.obs.spans import Tracer
from repro.runner import FlowRunner, JobSpec


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    """Every test starts and ends with tracing off."""
    obs.disable()
    yield
    obs.disable()


@pytest.fixture
def tiny_ref(tmp_path, tiny_design):
    """The tiny design saved as a JSON design reference."""
    from repro.io import save_design

    path = tmp_path / "tiny.json"
    save_design(tiny_design, path)
    return str(path)


# -- spans ---------------------------------------------------------------------


def test_span_nesting_ids_and_attrs():
    tracer = obs.enable("t")
    with obs.span("outer", kind="x") as outer:
        with obs.span("inner") as inner:
            assert obs.current_span_id() == inner.span_id
        with obs.span("inner"):
            pass
    assert outer is not None and inner is not None
    ids = [r.span_id for r in tracer.records]
    assert ids == [1, 2, 3]  # sequential, execution order
    assert tracer.records[0].parent_id is None
    assert tracer.records[1].parent_id == outer.span_id
    assert tracer.records[2].parent_id == outer.span_id
    assert tracer.records[0].attrs == {"kind": "x"}
    assert all(r.duration_s is not None and r.duration_s >= 0.0
               for r in tracer.records)
    totals = tracer.phase_totals()
    assert totals["inner"]["calls"] == 2
    assert totals["outer"]["calls"] == 1


def test_span_is_noop_when_disabled():
    assert obs.active() is None
    with obs.span("nothing") as record:
        assert record is None
    assert obs.current_span_id() is None


def test_trace_shape_is_deterministic():
    """Same code, same (id, parent, name) sequence — ids never derive
    from wall-clock, PIDs, or object addresses."""

    def run_once() -> list[tuple]:
        tracer = Tracer("shape")
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("c"):
                pass
        return [(r.span_id, r.parent_id, r.name) for r in tracer.records]

    assert run_once() == run_once()


def test_capture_swaps_the_tracer_and_keeps_what_it_records():
    tracer = obs.enable("outer")
    with obs.span("session"):
        with obs.capture("job") as inner:
            with obs.span("work"):  # lands on the captured tracer
                pass
            obs.counter("n").inc()
        assert obs.active() is tracer
    assert [(r.name, r.parent_id) for r in inner.records] == [("work", None)]
    assert inner.metrics.value("n") == 1.0
    # Nothing reaches the outer trace until someone adopts the payload.
    assert [r.name for r in tracer.records] == ["session"]
    assert len(tracer.metrics) == 0


def test_adopt_reparents_reids_and_merges_metrics():
    worker = Tracer("worker")
    with worker.span("cell"):
        with worker.span("phase"):
            pass
    worker.metrics.counter("n").inc(2.0)
    payload = worker.export_payload()

    parent = obs.enable("parent")
    parent.metrics.counter("n").inc()
    with parent.span("matrix") as matrix:
        assert matrix is not None
        new_ids = parent.adopt(payload, parent_id=matrix.span_id)
    assert len(new_ids) == 2
    by_name = {r.name: r for r in parent.records}
    assert by_name["cell"].parent_id == by_name["matrix"].span_id
    assert by_name["phase"].parent_id == by_name["cell"].span_id
    assert len({r.span_id for r in parent.records}) == 3
    # Rebased onto the parent's clock: nothing ends after "now".
    for r in parent.records:
        assert r.start_s + (r.duration_s or 0.0) <= parent.elapsed() + 1e-9
    assert parent.metrics.value("n") == 3.0


# -- metrics -------------------------------------------------------------------


def test_metrics_registry_kinds_and_merge():
    reg = MetricsRegistry()
    reg.counter("c").inc()
    reg.counter("c").inc(2.0)
    reg.gauge("g").set(5.0)
    reg.histogram("h").observe(1.0)
    reg.histogram("h").observe(3.0)
    assert reg.value("c") == 3.0
    assert reg.value("g") == 5.0
    assert reg.histogram("h").mean == 2.0
    with pytest.raises(TypeError):
        reg.gauge("c")
    with pytest.raises(TypeError):
        reg.value("h")

    other = MetricsRegistry()
    other.merge(reg.export())
    other.merge(reg.export())
    assert other.value("c") == 6.0          # counters add
    assert other.value("g") == 5.0          # gauges last-write
    h = other.histogram("h")
    assert (h.count, h.total, h.min, h.max) == (4, 8.0, 1.0, 3.0)


def test_metric_helpers_are_noops_when_disabled():
    assert obs.counter("x") is NULL_METRIC
    obs.counter("x").inc()
    obs.gauge("x").set(1.0)
    obs.histogram("x").observe(1.0)
    tracer = obs.enable("t")
    assert obs.counter("x") is not NULL_METRIC
    obs.counter("x").inc()
    assert tracer.metrics.value("x") == 1.0


# -- JSONL export --------------------------------------------------------------


def test_export_load_roundtrip(tmp_path):
    tracer = Tracer("roundtrip")
    with tracer.span("a", design="tiny"):
        with tracer.span("b"):
            pass
    tracer.metrics.counter("c").inc(4.0)
    tracer.metrics.histogram("h").observe(2.5)

    path = export_jsonl(tracer, path=tmp_path / "t.jsonl")
    trace = load_trace(path)
    assert trace.name == "roundtrip"
    assert [(s.span_id, s.parent_id, s.name) for s in trace.spans] == \
        [(r.span_id, r.parent_id, r.name) for r in tracer.records]
    assert trace.spans[0].attrs == {"design": "tiny"}
    assert trace.metrics["c"] == {"kind": "counter", "value": 4.0}
    assert trace.metrics["h"]["count"] == 1
    assert trace.phase_totals()["a"]["calls"] == 1
    assert "phase breakdown" in render_trace_report(trace)


def test_export_content_addressed_naming(tmp_path):
    tracer = Tracer("addr")
    with tracer.span("a"):
        pass
    path = export_jsonl(tracer, directory=tmp_path / "traces")
    lines = path.read_text().strip().splitlines()
    assert path.name == f"{trace_digest(lines[1:])}.jsonl"
    assert json.loads(lines[0])["digest"] == trace_digest(lines[1:])
    load_trace(path)  # validates digest


def test_load_trace_rejects_tampering(tmp_path):
    tracer = Tracer("tamper")
    with tracer.span("a"):
        pass
    path = export_jsonl(tracer, path=tmp_path / "t.jsonl")
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:1]) + "\n")  # drop the span line
    with pytest.raises(TraceSchemaError, match="digest"):
        load_trace(path)
    path.write_text("not json\n")
    with pytest.raises(TraceSchemaError):
        load_trace(path)


def test_load_trace_rejects_dangling_parent(tmp_path):
    span = {"event": "span", "id": 2, "parent": 99, "name": "x",
            "start_s": 0.0, "dur_s": 0.0, "attrs": {}}
    line = json.dumps(span, sort_keys=True, separators=(",", ":"))
    meta = json.dumps({"event": "meta", "schema": 1, "name": "bad",
                       "digest": trace_digest([line])},
                      sort_keys=True, separators=(",", ":"))
    path = tmp_path / "bad.jsonl"
    path.write_text(meta + "\n" + line + "\n")
    with pytest.raises(TraceSchemaError, match="parent"):
        load_trace(path)


# -- runner propagation --------------------------------------------------------


def _cell_shape(tracer) -> tuple[list[tuple], list[tuple]]:
    """(name, parent-name) pairs, order-normalised, durations dropped.

    Returns the pairs outside any ``designs.resolve`` or ``flow.build``
    subtree, and one sorted tuple of pairs per such subtree (its root
    included): a runner and each pool worker resolve and build a design
    once and fork that build for every later cell, so how many
    resolutions and builds a pool runs depends on which worker draws
    which cell, but not what one looks like.
    """
    by_id = {r.span_id: r for r in tracer.records}

    def subtree_of(r) -> int | None:
        while r is not None:
            if r.name in ("designs.resolve", "flow.build"):
                return r.span_id
            r = by_id.get(r.parent_id)
        return None

    outside: list[tuple] = []
    subtrees: dict[int, list[tuple]] = {}
    for r in tracer.records:
        pair = (r.name, by_id[r.parent_id].name if r.parent_id else None)
        root = subtree_of(r)
        if root is None:
            outside.append(pair)
        else:
            subtrees.setdefault(root, []).append(pair)
    return sorted(outside), [tuple(sorted(b)) for b in subtrees.values()]


def test_worker_trace_shape_matches_in_process(tiny_ref):
    """A 2-worker matrix must yield the same single re-rooted trace
    shape as the serial run: every worker cell span under the parent's
    runner.matrix span, and every worker build re-rooted with the
    in-process build's shape."""
    matrix = [JobSpec(design=tiny_ref, policy=p)
              for p in (Policy.NO_NDR, Policy.ALL_NDR)]

    shapes, builds = {}, {}
    for jobs in (1, 2):
        tracer = obs.enable(f"jobs{jobs}")
        FlowRunner(store=None).run(matrix, jobs=jobs)
        shapes[jobs], builds[jobs] = _cell_shape(tracer)
        obs.disable()

    assert shapes[1] == shapes[2]
    # 2 cells + 1 shared all-NDR reference, all under runner.matrix,
    # each on its own fork of the build.
    assert shapes[1].count((obs.CELL_SPAN, obs.MATRIX_SPAN)) == 3
    assert shapes[1].count(("flow.fork", obs.CELL_SPAN)) == 3
    # Serially the design resolves and builds once; each worker does
    # each at most once, and every resolution and build has the same
    # shape, re-rooted under a cell.
    assert len(builds[1]) == 2
    assert 2 <= len(builds[2]) <= 4
    assert set(builds[1]) == set(builds[2])
    assert builds[1] == [(("designs.resolve", obs.CELL_SPAN),),
                         (("extract.full", "flow.build"),
                          ("flow.build", obs.CELL_SPAN))]


def test_traced_runner_counts_each_cell_exactly_once(tiny_ref):
    """Identity adoption regression: in-process cells (serial path /
    cache fallback) must not be folded into the session totals twice,
    which a flat name-keyed merge would do."""
    tracer = obs.enable("serial")
    runner = FlowRunner(store=None)
    runner.run([JobSpec(design=tiny_ref, policy=Policy.NO_NDR),
                JobSpec(design=tiny_ref, policy=Policy.NO_NDR)], jobs=1)
    totals = tracer.phase_totals()
    # 2 cells + 1 reference executed; each runner.cell span counted once.
    assert totals[obs.CELL_SPAN]["calls"] == 3
    # One policy stage per cell (old code counted an in-process cell
    # both in capture and in the merge).
    assert totals["flow.policy"]["calls"] == 3


def _ancestors(tracer, record) -> list[str]:
    by_id = {r.span_id: r for r in tracer.records}
    names = []
    while record.parent_id is not None:
        record = by_id[record.parent_id]
        names.append(record.name)
    return names


def test_full_extractions_show_where_they_run(tiny_design, tech):
    """A smart flow extracts once, in the build: the optimizer starts
    from the build's extraction and its engine drives the retrim."""
    from repro.core.flow import run_flow

    tracer = obs.enable("extract")
    flow = run_flow(tiny_design, tech, policy=Policy.SMART)
    full = [r for r in tracer.records if r.name == "extract.full"]
    assert len(full) == 1
    assert "flow.build" in _ancestors(tracer, full[0])
    assert full[0].attrs == {
        "wires": len(flow.physical.routing.clock_wires)}
    obs.disable()

    # Without an engine the retrim extracts once more (and only once).
    tracer = obs.enable("extract-baseline")
    run_flow(tiny_design, tech, policy=Policy.ALL_NDR)
    parents = [_ancestors(tracer, r) for r in tracer.records
               if r.name == "extract.full"]
    assert len(parents) == 2
    assert "flow.build" in parents[0] and "flow.retrim" in parents[1]


def test_cached_rerun_metrics_report_cache_hits(tmp_path, tiny_ref):
    """Warm rerun: every cell served from the store, and the metric
    registry says so (cells_cached + artifact hits, no computes)."""
    matrix = [JobSpec(design=tiny_ref, policy=Policy.NO_NDR)]
    store = tmp_path / "store"

    tracer = obs.enable("cold")
    FlowRunner(store=store).run(matrix, jobs=1)
    cold = tracer.metrics.export()
    obs.disable()

    tracer = obs.enable("warm")
    FlowRunner(store=store).run(matrix, jobs=1)
    warm = tracer.metrics.export()
    obs.disable()

    assert cold["runner.cells_computed"]["value"] == 2  # cell + reference
    assert warm["runner.cells_cached"]["value"] == 2
    assert "runner.cells_computed" not in warm
    assert warm["artifacts.hits"]["value"] >= 2
    assert cold["artifacts.saves"]["value"] >= 2


