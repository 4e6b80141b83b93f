"""FlowRunner / JobSpec: dedupe, caching, parallel == serial."""

from __future__ import annotations

import os

import pytest

from repro import obs
from repro.core import Policy
from repro.core.flow import run_flow
from repro.core.stages import PolicyParams
from repro.runner import (FlowRunner, JobSpec, design_ref_fingerprint,
                          resolve_design)

POLICIES = (Policy.NO_NDR, Policy.ALL_NDR, Policy.SMART)


@pytest.fixture(scope="module")
def tiny_ref(tmp_path_factory, tiny_design) -> str:
    """The tiny design as a JSON design reference."""
    from repro.io import save_design

    path = tmp_path_factory.mktemp("designs") / "tiny.json"
    save_design(tiny_design, path)
    return str(path)


def _runner(tmp_path, **kwargs) -> FlowRunner:
    kwargs.setdefault("store", str(tmp_path / "artifacts"))
    return FlowRunner(**kwargs)


# -- job declarations ---------------------------------------------------------


def test_reference_job_pegs_to_all_ndr():
    cell = JobSpec(design="a", policy=Policy.SMART, slack=0.15)
    ref = cell.reference_job()
    assert ref == JobSpec(design="a", policy=Policy.ALL_NDR, slack=None)
    assert ref.reference_job() is None  # a reference has no reference


def test_policy_params_normalisation_drops_unread_knobs():
    smart = JobSpec(design="a", policy=Policy.SMART, random_seed=9)
    assert smart.policy_params() == PolicyParams(policy=Policy.SMART)
    rand = JobSpec(design="a", policy=Policy.RANDOM, random_seed=9)
    assert rand.policy_params().random_seed == 9
    # Uniform policies hash identically no matter the knobs.
    a = JobSpec(design="a", policy=Policy.ALL_NDR, random_seed=1)
    b = JobSpec(design="a", policy=Policy.ALL_NDR, random_seed=2)
    assert a.policy_params() == b.policy_params()


def test_design_ref_fingerprint_tracks_file_content(tiny_ref, tmp_path):
    from pathlib import Path

    assert design_ref_fingerprint(tiny_ref) == \
        design_ref_fingerprint(tiny_ref)
    copy = tmp_path / "edited.json"
    copy.write_text(Path(tiny_ref).read_text().replace("tiny", "tinier"))
    assert design_ref_fingerprint(str(copy)) != \
        design_ref_fingerprint(tiny_ref)
    # Benchmark names fingerprint their spec.
    assert design_ref_fingerprint("ckt64") == design_ref_fingerprint("ckt64")
    assert design_ref_fingerprint("ckt64") != design_ref_fingerprint("ckt128")


def test_resolve_design_roundtrip(tiny_ref, tiny_design):
    design = resolve_design(tiny_ref)
    assert design.name == tiny_design.name
    assert len(design.clock_sinks) == len(tiny_design.clock_sinks)


# -- determinism --------------------------------------------------------------


def test_run_flow_is_bitwise_deterministic(tiny_design):
    """Two invocations with the same inputs agree to the last bit."""
    first = run_flow(tiny_design, policy=Policy.SMART)
    second = run_flow(tiny_design, policy=Policy.SMART)
    assert first.summary() == second.summary()
    assert first.rule_histogram == second.rule_histogram


def test_worker_process_matches_in_process(tiny_ref, tmp_path):
    """A cell run in a pool worker equals the same cell run in-process."""
    jobs = [JobSpec(design=tiny_ref, policy=p) for p in POLICIES]
    serial = _runner(tmp_path / "a").run(jobs)
    parallel = _runner(tmp_path / "b").run(jobs, jobs=2)
    for s, p in zip(serial, parallel):
        assert s.summary == p.summary  # bitwise: exact float equality
        assert s.rule_histogram == p.rule_histogram
        assert s.feasible == p.feasible


# -- caching and dedupe -------------------------------------------------------


def test_reference_computed_once_per_design(tiny_ref, tmp_path):
    runner = _runner(tmp_path)
    runner.run([JobSpec(design=tiny_ref, policy=Policy.SMART, slack=slack)
                for slack in (0.6, 0.15)])
    assert list(runner._ref_metrics) == [tiny_ref]
    # Both cells pegged to the same reference; looser budget never
    # needs more upgrades than the tighter one.
    targets_loose = runner.targets_for(tiny_ref, slack=0.6)
    targets_tight = runner.targets_for(tiny_ref, slack=0.15)
    assert targets_loose.max_worst_delta > targets_tight.max_worst_delta


def test_all_ndr_cell_rewraps_cached_reference(tiny_ref, tmp_path):
    """A pegged ALL-NDR cell reads the reference's record, not a re-run."""
    runner = _runner(tmp_path)
    result = runner.run([JobSpec(design=tiny_ref,
                                 policy=Policy.ALL_NDR)])[0]
    assert result.cached  # cold store, yet served from the reference
    direct = run_flow(resolve_design(tiny_ref), policy=Policy.ALL_NDR,
                      targets=runner.targets_for(tiny_ref))
    assert result.summary == direct.summary()


def test_warm_rerun_is_fully_cached(tiny_ref, tmp_path):
    runner = _runner(tmp_path)
    jobs = [JobSpec(design=tiny_ref, policy=p) for p in POLICIES]
    cold = runner.run(jobs)
    warm = FlowRunner(store=str(tmp_path / "artifacts")).run(jobs)
    assert all(r.cached for r in warm)
    assert [r.summary for r in warm] == [r.summary for r in cold]


def test_duplicate_cells_fan_out(tiny_ref, tmp_path):
    runner = _runner(tmp_path)
    job = JobSpec(design=tiny_ref, policy=Policy.SMART)
    results = runner.run([job, job], jobs=2)
    assert len(results) == 2
    assert results[0].summary == results[1].summary


def test_store_disabled_still_runs(tiny_ref):
    runner = FlowRunner(store=False)
    assert runner.store is None
    result = runner.run_job(JobSpec(design=tiny_ref, policy=Policy.SMART))
    assert result.feasible and not result.cached


# -- streamed phases and verification -----------------------------------------


def test_phases_stream_back(tiny_ref, tmp_path):
    runner = _runner(tmp_path)
    jobs = [JobSpec(design=tiny_ref, policy=p) for p in POLICIES]
    results = runner.run(jobs, jobs=2)
    smart = next(r for r in results if r.job.policy == Policy.SMART)
    # The reference job built the design in phase 1; the SMART cell
    # forks that build or reads it from the store, then streams its
    # policy stage back in its trace payload.
    policy_spans = [rec for rec in smart.trace["records"]
                    if rec["name"] == "flow.policy"]
    assert len(policy_spans) == 1
    assert policy_spans[0]["dur_s"] >= 0.0


def test_in_process_cells_leave_no_trace_payload(tiny_ref):
    """An in-process cell records into the active tracer, if any, and
    ships nothing: only a pool worker captures a trace payload."""
    job = JobSpec(design=tiny_ref, policy=Policy.NO_NDR, slack=None)
    assert FlowRunner(store=None).run_job(job).trace is None
    tracer = obs.enable("session")
    try:
        result = FlowRunner(store=None).run_job(job)
    finally:
        obs.disable()
    assert result.trace is None
    assert [r.name for r in tracer.records].count(obs.CELL_SPAN) == 1
    assert tracer.metrics.value("runner.cells_computed") == 1.0


def test_each_computed_flow_is_verified_once(tiny_ref):
    """Under REPRO_VERIFY_FLOWS (set suite-wide) a computed cell runs
    the check registry once, in ``run_flow``'s hook."""
    from repro.verify import verify_flow

    assert os.environ.get("REPRO_VERIFY_FLOWS")
    job = JobSpec(design=tiny_ref, policy=Policy.NO_NDR, slack=None)
    with obs.capture("verify") as tracer:
        result = FlowRunner(store=None).run_job(job, return_flow=True)
    assert not result.cached
    one_pass = len(verify_flow(result.flow).checks_run)
    assert one_pass > 0
    assert tracer.metrics.value("verify.checks_run") == one_pass


def test_pool_initializer_forwards_verify_env(tech, monkeypatch):
    from repro.runner import runner as runner_mod

    monkeypatch.delenv("REPRO_VERIFY_FLOWS", raising=False)
    before = dict(os.environ)
    runner_mod._pool_init(tech, None, True, False)
    assert os.environ.get("REPRO_VERIFY_FLOWS") == "1"
    runner_mod._pool_init(tech, None, False, False)
    assert "REPRO_VERIFY_FLOWS" not in os.environ
    # REPRO_VERIFY_FLOWS is the only variable the initializer forwards.
    assert dict(os.environ) == before
    monkeypatch.setenv("REPRO_VERIFY_FLOWS", "1")  # restore for the suite


# -- cell records: warm cells without whole flows ------------------------------


@pytest.fixture
def loads(monkeypatch):
    """Types of everything ``ArtifactStore.load`` returns, in order."""
    from repro.io.artifacts import ArtifactStore

    seen: list[str] = []
    original = ArtifactStore.load

    def spy(self, key):
        obj = original(self, key)
        seen.append(type(obj).__name__)
        return obj

    monkeypatch.setattr(ArtifactStore, "load", spy)
    return seen


@pytest.fixture
def unverified(monkeypatch):
    """No flow verification, so record-only callers stay record-only."""
    monkeypatch.delenv("REPRO_VERIFY_FLOWS", raising=False)


def _timeless(report):
    """A report with its cells' cache flags and runtimes dropped."""
    from dataclasses import replace

    from repro.api import CellReport, CompareReport

    if isinstance(report, CompareReport):
        return replace(report, cells=tuple(_timeless(c)
                                           for c in report.cells))
    if isinstance(report, CellReport):
        return replace(report, cached=False, runtime_s=0.0)
    return report  # a sweep reports neither


def test_warm_api_calls_read_records_only(tiny_ref, tmp_path, unverified,
                                          loads):
    from repro import api

    store = str(tmp_path / "artifacts")
    calls = [(api.compare, api.CompareRequest(design=tiny_ref, slack=0.15)),
             (api.sweep, api.SweepRequest(design=tiny_ref,
                                          slacks=(0.6, 0.15))),
             (api.run, api.FlowRequest(design=tiny_ref, policy="smart",
                                       slack=0.3))]
    cold = [call(request, store=store) for call, request in calls]
    assert "FlowResult" not in loads  # a cold ALL-NDR cell reads a record
    loads.clear()
    with obs.capture("warm") as warm_trace:
        warm = [call(request, store=store) for call, request in calls]
    # Nothing is built or optimized: every cell span of the warm pass
    # is answered from its stored record.
    spans = {r.name for r in warm_trace.records}
    assert obs.CELL_SPAN in spans
    assert not spans & {"flow.build", "flow.policy"}, spans
    assert loads and set(loads) == {"CellRecord"}
    assert all(c.cached for c in warm[0].cells) and warm[2].cached
    assert [_timeless(w) for w in warm] == [_timeless(c) for c in cold]


def test_budget_blind_cells_share_one_record(tiny_ref, tmp_path,
                                             unverified, monkeypatch):
    """A policy that reads no budgets measures the same at every slack:
    one record serves all its cells, each judged under its own budgets.
    A budget-reading policy keeps one record per slack."""
    saved = _saved_keys(monkeypatch)
    runner = _runner(tmp_path)
    blind = (Policy.NO_NDR, Policy.ALL_NDR, Policy.WIDTH_ONLY,
             Policy.SPACE_ONLY, Policy.RANDOM)
    jobs = [JobSpec(design=tiny_ref, policy=p, slack=s)
            for p in blind for s in (None, 0.0, 0.15, 0.6)]
    jobs += [JobSpec(design=tiny_ref, policy=Policy.SMART, slack=s)
             for s in (0.15, 0.6)]
    results = runner.run(jobs)
    assert "FlowResult" not in saved
    records = [record for _, record in saved["CellRecord"]]
    assert len({k for k, _ in saved["CellRecord"]}) == len(records) \
        == len(blind) + 2
    # The ALL-NDR reference ran first, for the budgets: every ALL-NDR
    # cell is then a hit, and so is every further slack of a policy.
    assert sum(not r.cached for r in results) == len(records) - 1
    design = resolve_design(tiny_ref)
    for result in results:
        job = result.job
        targets = (None if job.slack is None
                   else runner.targets_for(tiny_ref, slack=job.slack))
        direct = run_flow(design, policy=job.policy, targets=targets)
        assert result.summary == direct.summary(), job.label  # bit for bit
        assert result.feasible == direct.feasible, job.label
    # The shared records are judged anew: some verdicts differ by slack.
    assert len({r.feasible for r in results}) == 2


def test_cell_record_judges_like_the_flow(tiny_design):
    from dataclasses import replace

    from repro.core.targets import RobustnessTargets
    from repro.runner.runner import CellRecord

    flow = run_flow(tiny_design, policy=Policy.ALL_NDR)
    record = CellRecord.of(flow)
    assert "feasible" not in record.measurements
    loose = RobustnessTargets(max_worst_delta=1e6, max_skew_3sigma=1e6,
                              max_slew=1e6, max_em_util=1e6)
    budgets = [loose] + [replace(loose, **{name: 1e-6}) for name in (
        "max_worst_delta", "max_skew_3sigma", "max_slew", "max_em_util")]
    verdicts = []
    for targets in budgets:
        rewrapped = replace(flow, targets=targets)
        summary, feasible = record.judged(targets)
        assert summary == rewrapped.summary()
        assert feasible == rewrapped.feasible
        verdicts.append(feasible)
    assert verdicts == [True, False, False, False, False]


def test_warm_flow_callers_get_flows_matching_records(tiny_ref, tmp_path,
                                                      monkeypatch):
    from repro.verify import VerifyContext, run_checks, verify_flow

    store = str(tmp_path / "artifacts")
    # The NO-NDR cell at 0.6 shares the 0.15 cell's record and flow.
    jobs = [JobSpec(design=tiny_ref, policy=p) for p in POLICIES]
    jobs.append(JobSpec(design=tiny_ref, policy=Policy.NO_NDR, slack=0.6))
    monkeypatch.setenv("REPRO_VERIFY_FLOWS", "1")
    cold = FlowRunner(store=store).run(jobs)
    monkeypatch.delenv("REPRO_VERIFY_FLOWS")
    flow_runner = FlowRunner(store=store)
    warm_flows = flow_runner.run(jobs, return_flows=True)
    monkeypatch.setenv("REPRO_VERIFY_FLOWS", "1")
    with obs.capture("warm-verified") as tracer:
        warm_verified = FlowRunner(store=store).run(jobs)
    # Nothing is computed, and every loaded flow (the reference's and
    # each cell's) is checked once.
    one_pass = len(verify_flow(warm_flows[0].flow).checks_run)
    assert tracer.metrics.value("runner.cells_cached") == len(jobs) + 1
    assert tracer.metrics.value("verify.checks_run") \
        == (len(jobs) + 1) * one_pass
    for c, f, v in zip(cold, warm_flows, warm_verified):
        assert f.cached and v.cached
        assert f.flow is not None and v.flow is None
        # A loaded flow carries the cell's own budgets.
        assert f.flow.targets == flow_runner.targets_for(tiny_ref,
                                                         f.job.slack)
        assert f.flow.summary() == f.summary == c.summary  # bit for bit
        assert f.flow.rule_histogram == f.rule_histogram
        assert v.summary == c.summary
    smart = warm_flows[POLICIES.index(Policy.SMART)].flow
    assert smart.optimize is not None and smart.optimize.engine is not None
    # The loaded engine is what the oracle inspects, and it is coherent.
    report = run_checks(VerifyContext.from_flow(smart), kinds=["oracle"])
    assert not report.has_errors, report.render()


def _measurements(summary: dict[str, float]) -> dict[str, float]:
    """A cell summary without its verdict (what a record stores)."""
    return {k: v for k, v in summary.items() if k != "feasible"}


def _saved_keys(monkeypatch) -> dict[str, list[tuple[str, object]]]:
    """Keys ``ArtifactStore.save`` writes, by stored type name."""
    from repro.io.artifacts import ArtifactStore

    saved: dict[str, list[tuple[str, object]]] = {}
    original = ArtifactStore.save

    def spy(self, key, obj):
        saved.setdefault(type(obj).__name__, []).append((key, obj))
        original(self, key, obj)

    monkeypatch.setattr(ArtifactStore, "save", spy)
    return saved


def test_record_only_callers_save_no_flows(tiny_ref, tmp_path, unverified,
                                           monkeypatch):
    from repro import api

    store = str(tmp_path / "artifacts")
    saved = _saved_keys(monkeypatch)
    report = api.compare(api.CompareRequest(design=tiny_ref, slack=0.15),
                         store=store)
    assert set(saved) == {"PhysicalDesign", "CellRecord"}
    # One record per cell: NO-NDR, SMART and the ALL-NDR reference,
    # which the pegged ALL-NDR cell shares.
    records = saved["CellRecord"]
    assert len({k for k, _ in records}) == len(records) == 3
    measured = [r.measurements for _, r in records]
    assert all(_measurements(c.summary) in measured for c in report.cells)

    # A flow caller recomputes the cell once, from the cached build, and
    # saves both artifacts; the recomputed flow equals the record.
    smart = JobSpec(design=tiny_ref, policy=Policy.SMART, slack=0.15)
    saved.clear()
    first = FlowRunner(store=store).run_job(smart, return_flow=True)
    assert not first.cached and first.flow is not None
    assert sorted(saved) == ["CellRecord", "FlowResult"]
    assert first.flow.summary() == first.summary \
        == report.cell(Policy.SMART).summary  # bit for bit
    again = FlowRunner(store=store).run_job(smart, return_flow=True)
    assert again.cached and again.flow is not None
    assert again.flow.summary() == first.summary


def test_missing_flow_and_corrupt_record(tiny_ref, tmp_path, unverified,
                                         monkeypatch):
    from repro.io.artifacts import ArtifactStore

    root = tmp_path / "artifacts"
    job = JobSpec(design=tiny_ref, policy=Policy.SMART)
    saved = _saved_keys(monkeypatch)
    cold = FlowRunner(store=str(root)).run_job(job, return_flow=True)
    (flow_key, _), = [(k, f) for k, f in saved["FlowResult"]
                      if f.policy == Policy.SMART]
    (record_key, _), = [(k, r) for k, r in saved["CellRecord"]
                        if r.measurements == _measurements(cold.summary)]
    store = ArtifactStore(root)
    store.path_for(flow_key).unlink()

    # Record-only callers never needed the flow.
    served = FlowRunner(store=str(root)).run_job(job, return_flow=False)
    assert served.cached and served.summary == cold.summary
    # A flow caller recomputes, and re-saves both artifacts.
    saved.clear()
    rebuilt = FlowRunner(store=str(root)).run_job(job, return_flow=True)
    assert not rebuilt.cached and rebuilt.flow is not None
    assert rebuilt.flow.summary() == rebuilt.summary == cold.summary
    assert flow_key in [k for k, _ in saved["FlowResult"]]
    assert record_key in [k for k, _ in saved["CellRecord"]]
    again = FlowRunner(store=str(root)).run_job(job, return_flow=True)
    assert again.cached and again.flow.summary() == cold.summary

    # A corrupt record is a miss: the cell recomputes.
    store.path_for(record_key).write_bytes(b"\x80\x05 not a pickle")
    healed = FlowRunner(store=str(root)).run_job(job, return_flow=False)
    assert not healed.cached and healed.summary == cold.summary


def test_designs_resolve_once_per_content(tiny_ref, tmp_path, unverified,
                                          monkeypatch):
    import json
    import shutil

    from repro import api
    from repro.runner import runner as runner_mod

    resolved: list[str] = []
    original = runner_mod.resolve_design

    def spy(ref):
        resolved.append(ref)
        return original(ref)

    monkeypatch.setattr(runner_mod, "resolve_design", spy)
    path = tmp_path / "design.json"
    shutil.copy(tiny_ref, path)
    store = str(tmp_path / "artifacts")
    api.compare(api.CompareRequest(design=str(path)), store=store)
    assert resolved == [str(path)]

    runner = FlowRunner(store=store)
    matrix = [JobSpec(design=str(path), policy=p) for p in POLICIES]
    first = runner.run(matrix)
    runner.run(matrix)
    assert len(resolved) == 2  # once for the new runner, then memoized
    # Rewriting the file changes its content fingerprint: resolve anew.
    data = json.loads(path.read_text())
    data["name"] = "renamed"
    path.write_text(json.dumps(data))
    renamed = runner.run(matrix)
    assert len(resolved) == 3
    assert [r.summary for r in renamed] == [r.summary for r in first]
