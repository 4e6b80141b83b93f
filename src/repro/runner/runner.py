"""The parallel flow runner.

:class:`FlowRunner` executes a list of
:class:`~repro.runner.matrix.JobSpec` cells with a process pool,
deduplicating shared prerequisites and content-addressing every
product through an :class:`~repro.io.artifacts.ArtifactStore`:

* the all-NDR *reference* flow each slack-pegged cell needs for its
  budgets runs once per design — a cached upstream job, not a per-cell
  recomputation;
* the default-rule *build* is shared across every policy/slack cell of
  a design: the runner (and each pool worker) keeps the last build it
  computed pristine in a :class:`~repro.core.stages.BuildMemo`, and
  each cell runs on a fork of it
  (:meth:`~repro.core.flow.PhysicalDesign.fork`); a build read from the
  store goes to the one cell that read it.  A flow the runner returns
  therefore shares its design, technology and signal wires read-only
  with that runner's other flows;
* a completed *cell* is cached as a compact :class:`CellRecord` (its
  measurements) under the ``flow-cell`` key, plus its full
  :class:`FlowResult` under a key derived from it only when the caller
  that computed the cell reads flows (``return_flows``, or
  verification).  A warm rerun reads only the records — under a
  kilobyte per cell; a flow caller that finds no flow recomputes the
  cell once from the cached build and saves both;
* a cell whose policy does not read budgets
  (:attr:`~repro.core.policies.Policy.reads_budgets`: the uniform
  rules and random) measures the same at every slack, so its key
  leaves the budgets out and one record serves every slack — the
  pegged ALL-NDR cells share the reference's record.  Every read
  judges the record against the reading cell's own budgets;
* each design resolves once per runner (once per worker in a pool),
  memoized by its content fingerprint.

A cell records into the active tracer.  Only a pool worker captures
one, shipping its span tree plus metric deltas back inside each
:class:`JobResult`; a traced parent re-roots it under its
``runner.matrix`` span, so a parallel run yields one coherent trace.
``REPRO_VERIFY_FLOWS`` is read when the runner is built and forwarded
to its workers by the pool initializer.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Iterable, Optional, Union

from repro import obs
from repro.core.flow import FlowResult, run_flow
from repro.core.policies import Policy
from repro.core.stages import BuildMemo
from repro.core.targets import RobustnessTargets
from repro.io.artifacts import ArtifactStore, content_key
from repro.netlist.design import Design
from repro.runner.matrix import (DesignRef, JobSpec, design_ref_fingerprint,
                                 resolve_design)
from repro.tech.technology import Technology, default_technology

#: (worst_delta_ps, skew_3sigma_ps) of a design's all-NDR reference.
RefMetrics = tuple[float, float]

#: Environment variables the runner deliberately forwards into (or
#: honors inside) worker processes.  The static determinism analyzer
#: (``repro lint --static``) allows env access to exactly these names
#: from worker-reachable code; reading anything else is a D003/S003
#: finding because a worker would silently diverge from the parent.
FORWARDED_ENV_WHITELIST: tuple[str, ...] = ("REPRO_VERIFY_FLOWS",
                                            "REPRO_CACHE_DIR")


@dataclass
class JobResult:
    """What one matrix cell streams back to the parent.

    Always lightweight-serializable: summary metrics and rule
    histogram.  ``trace`` is a pool worker's span tree + metric deltas
    (:meth:`repro.obs.Tracer.export_payload`); it is ``None`` for an
    in-process cell and once a traced parent has adopted it — exactly
    once, by span identity.  The full :class:`FlowResult` rides along
    only when the caller asked for it (``return_flows=True``); it is
    pickled across the process boundary in that case.
    """

    job: JobSpec
    summary: dict[str, float]
    rule_histogram: dict[str, int]
    ndr_track_cost: float
    feasible: bool
    runtime: float
    cached: bool = False
    trace: Optional[dict[str, Any]] = None
    flow: Optional[FlowResult] = None


@dataclass(frozen=True)
class CellRecord:
    """The ``flow-cell`` artifact: a finished cell's measurements.

    A cached cell answers from this record alone.  It holds no verdict:
    :meth:`judged` decides feasibility against the reading cell's own
    budgets, so one record can serve every slack of a budget-blind
    cell.  The full :class:`FlowResult` lives under :func:`_flow_key`
    of the same key when the caller that computed the cell read flows;
    it is unpickled only when a caller needs the flow itself, and a
    flow caller that finds it absent recomputes the cell.
    """

    #: ``FlowResult.summary()`` without its ``"feasible"`` entry
    measurements: dict[str, float]
    rule_histogram: dict[str, int]
    ndr_track_cost: float

    @classmethod
    def of(cls, flow: FlowResult) -> "CellRecord":
        """The record of a finished flow."""
        measurements = flow.summary()
        del measurements["feasible"]
        return cls(measurements=measurements,
                   rule_histogram=dict(flow.rule_histogram),
                   ndr_track_cost=flow.ndr_track_cost)

    def judged(self, targets: RobustnessTargets
               ) -> tuple[dict[str, float], bool]:
        """``(summary, feasible)`` of this cell under ``targets``.

        Bit-identical to the flow's own ``summary()`` and ``feasible``
        under the same budgets: feasibility is decided from the same
        four metrics by the same comparisons.
        """
        m = self.measurements
        feasible = not targets.violations(worst_delta=m["worst_delta_ps"],
                                          skew_3sigma=m["skew_3sigma_ps"],
                                          worst_slew=m["worst_slew_ps"],
                                          em_util=m["em_worst_util"])
        return {**m, "feasible": 1.0 if feasible else 0.0}, feasible


@dataclass
class _ExecContext:
    """Everything a job execution needs besides the job itself."""

    tech: Technology
    store: Optional[ArtifactStore]
    verify: bool
    return_flows: bool = False
    #: design fingerprint -> resolved design, shared by every cell the
    #: context runs (an edited design JSON fingerprints anew)
    designs: dict[str, Design] = field(default_factory=dict)
    #: the last build computed here, forked for every later cell of it
    builds: BuildMemo = field(default_factory=BuildMemo)

    def design(self, ref: DesignRef) -> Design:
        """``ref`` resolved, once per design content."""
        fp = design_ref_fingerprint(ref)
        design = self.designs.get(fp)
        if design is None:
            design = self.designs[fp] = resolve_design(ref)
        return design


def _reference_targets(design: Design, tech: Technology,
                       metrics: Optional[RefMetrics],
                       slack: Optional[float]) -> RobustnessTargets:
    """The cell's budgets: period-derived, or pegged to the reference."""
    if slack is None or metrics is None:
        return RobustnessTargets.for_period(design.clock_period,
                                            tech.max_slew)
    worst_delta, skew_3sigma = metrics
    return RobustnessTargets.from_reference(worst_delta=worst_delta,
                                            skew_3sigma=skew_3sigma,
                                            max_slew=tech.max_slew,
                                            slack=slack)


def _cell_key(job: JobSpec, ctx: _ExecContext,
              targets: RobustnessTargets) -> str:
    """Content hash identifying one completed cell (its record).

    A budget-blind cell hashes only the analysis settings of its
    targets — all its flow reads of them — so every slack shares one
    record.
    """
    return content_key(
        "flow-cell",
        design=design_ref_fingerprint(job.design),
        tech=ctx.tech,
        policy=job.policy_params(),
        targets=targets if job.policy.reads_budgets else {
            "alignment": targets.alignment,
            "mc_samples": targets.mc_samples,
            "mc_seed": targets.mc_seed})


def _flow_key(record_key: str) -> str:
    """Store key of the full :class:`FlowResult` behind a cell record."""
    return content_key("flow-result", cell=record_key)


def _load_cell(store: ArtifactStore, key: str, need_flow: bool
               ) -> tuple[Optional[CellRecord], Optional[FlowResult]]:
    """The cell stored under ``key``: its record, and its flow if needed.

    A missing or corrupt record is a miss; so is a missing flow when
    the caller needs one (the cell is then recomputed and both
    artifacts saved again).
    """
    record = store.load(key)
    if not isinstance(record, CellRecord):
        return None, None
    if not need_flow:
        return record, None
    flow = store.load(_flow_key(key))
    if not isinstance(flow, FlowResult):
        return None, None
    return record, flow


def _save_cell(store: ArtifactStore, key: str, record: CellRecord,
               flow: Optional[FlowResult]) -> None:
    """Store a cell: its flow (when there is one), then its record."""
    if flow is not None:
        store.save(_flow_key(key), flow)
    store.save(key, record)


def _execute_job(job: JobSpec, metrics: Optional[RefMetrics],
                 ctx: _ExecContext) -> JobResult:
    """Run (or load) one cell under a ``runner.cell`` span.

    ``run_flow``'s hook verifies a computed flow; under verification a
    flow loaded from the store is checked here instead.
    """
    start = time.perf_counter()  # static: ok[D002] feeds JobResult.runtime metadata only
    design = ctx.design(job.design)
    targets = _reference_targets(design, ctx.tech, metrics, job.slack)
    store = ctx.store
    key = _cell_key(job, ctx, targets) if store is not None else None
    # Only verification and flow-returning callers read the full flow,
    # so only they load or save it; everyone else is answered from, and
    # stores, the compact record.
    need_flow = ctx.verify or ctx.return_flows

    with obs.span(obs.CELL_SPAN, cell=job.label, design=str(job.design),
                  policy=job.policy.value) as cell:
        record: Optional[CellRecord] = None
        flow: Optional[FlowResult] = None
        if key is not None and store is not None:
            record, flow = _load_cell(store, key, need_flow)
        cached = record is not None
        if record is None:
            flow = run_flow(design, ctx.tech, policy=job.policy,
                            targets=targets,
                            random_fraction=job.random_fraction,
                            random_seed=job.random_seed,
                            lambda_track=job.lambda_track,
                            store=ctx.store, memo=ctx.builds)
            record = CellRecord.of(flow)
            if key is not None and store is not None:
                _save_cell(store, key, record, flow if need_flow else None)
        elif flow is not None:
            # A budget-blind cell's flow may have been stored by
            # another slack: hand it back under this cell's budgets.
            flow = replace(flow, targets=targets)
            if ctx.verify:
                from repro.verify import assert_flow_clean

                assert_flow_clean(flow, f"runner:{job.label}")
        summary, feasible = record.judged(targets)
        if cell is not None:
            cell.attrs["cached"] = cached
            cell.attrs["flow_loaded"] = cached and flow is not None
        obs.counter("runner.cells_cached" if cached
                    else "runner.cells_computed").inc()

    return JobResult(
        job=job,
        summary=summary,
        rule_histogram=dict(record.rule_histogram),
        ndr_track_cost=record.ndr_track_cost,
        feasible=feasible,
        runtime=time.perf_counter() - start,  # static: ok[D002] feeds JobResult.runtime metadata only
        cached=cached,
        flow=flow if ctx.return_flows else None,
    )


# -- worker-process plumbing --------------------------------------------------

_WORKER_CTX: Optional[_ExecContext] = None


def _pool_init(tech: Technology, store_root: Optional[str], verify: bool,
               return_flows: bool) -> None:
    """Per-worker initializer: rebuild the execution context.

    ``REPRO_VERIFY_FLOWS`` is forwarded explicitly — captured once in
    the parent, replayed here — so the in-flow verification hook
    behaves in workers exactly as it would in the parent, regardless of
    how the pool was spawned.
    """
    global _WORKER_CTX
    # A forked worker inherits the parent's installed tracer; drop it so
    # nothing outside a job's capture records into the fork copy.
    obs.disable()
    if verify:
        os.environ["REPRO_VERIFY_FLOWS"] = "1"
    else:
        os.environ.pop("REPRO_VERIFY_FLOWS", None)
    store = ArtifactStore(store_root) if store_root is not None else None
    _WORKER_CTX = _ExecContext(tech=tech, store=store, verify=verify,  # static: ok[D004] per-worker context slot, written once by the pool initializer before any job runs
                               return_flows=return_flows)


def _pool_run(job: JobSpec, metrics: Optional[RefMetrics]) -> JobResult:
    """Pool entry point: execute one job, capturing its trace."""
    assert _WORKER_CTX is not None, "pool used before initialization"
    with obs.capture(f"cell:{job.label}") as tracer:
        result = _execute_job(job, metrics, _WORKER_CTX)
    result.trace = tracer.export_payload()
    return result


class FlowRunner:
    """Schedules a job matrix over a process pool with artifact reuse.

    Parameters
    ----------
    tech:
        Technology shared by every cell (default technology if omitted).
    store:
        ``ArtifactStore`` instance, a path for one, or ``None`` to
        disable caching entirely.  Defaults to the persistent
        per-user cache (:func:`~repro.io.artifacts.default_cache_dir`).
    jobs:
        Default worker count for :meth:`run`; ``1`` executes in-process
        (same code path, no pool).

    Flows are verified when ``REPRO_VERIFY_FLOWS`` is set at
    construction.
    """

    def __init__(self, tech: Optional[Technology] = None,
                 store: Union[ArtifactStore, str, Path, None, bool] = True,
                 jobs: int = 1) -> None:
        self.tech = tech if tech is not None else default_technology()
        resolved: Optional[ArtifactStore]
        if isinstance(store, ArtifactStore):
            resolved = store
        elif isinstance(store, bool):
            resolved = ArtifactStore() if store else None
        elif store is None:
            resolved = None
        else:
            resolved = ArtifactStore(store)
        self.store: Optional[ArtifactStore] = resolved
        self.jobs = max(1, int(jobs))
        self.verify = bool(os.environ.get("REPRO_VERIFY_FLOWS"))
        self._ref_metrics: dict[DesignRef, RefMetrics] = {}
        self._designs: dict[str, Design] = {}
        self._builds = BuildMemo()

    # -- single-cell API ------------------------------------------------------

    def _context(self, return_flows: bool) -> _ExecContext:
        return _ExecContext(tech=self.tech, store=self.store,
                            verify=self.verify, return_flows=return_flows,
                            designs=self._designs, builds=self._builds)

    def run_job(self, job: JobSpec, return_flow: bool = True) -> JobResult:
        """Execute one cell in-process (references resolved as needed).

        The full reference flow itself is
        ``run_job(job.reference_job(), return_flow=True).flow``.
        """
        metrics = self._metrics_for(job)
        return _execute_job(job, metrics, self._context(return_flow))

    def _reference_metrics(self, design: DesignRef) -> RefMetrics:
        """The design's all-NDR reference metrics (from its cell record)."""
        metrics = self._ref_metrics.get(design)
        if metrics is None:
            job = JobSpec(design=design, policy=Policy.ALL_NDR, slack=None)
            summary = _execute_job(job, None, self._context(False)).summary
            metrics = self._ref_metrics[design] = (
                summary["worst_delta_ps"], summary["skew_3sigma_ps"])
        return metrics

    def targets_for(self, design: DesignRef,
                    slack: float = 0.15) -> RobustnessTargets:
        """Budgets pegged to the design's cached all-NDR reference."""
        worst_delta, skew_3sigma = self._reference_metrics(design)
        return RobustnessTargets.from_reference(worst_delta=worst_delta,
                                                skew_3sigma=skew_3sigma,
                                                max_slew=self.tech.max_slew,
                                                slack=slack)

    def _metrics_for(self, job: JobSpec) -> Optional[RefMetrics]:
        if job.slack is None:
            return None
        return self._reference_metrics(job.design)

    # -- matrix API -----------------------------------------------------------

    def run(self, matrix: Iterable[JobSpec],
            jobs: Optional[int] = None, return_flows: bool = False
            ) -> list[JobResult]:
        """Execute every cell; results in matrix order.

        Each design's all-NDR reference is computed once, shared by
        every slack and policy.  Serially, cells run in matrix order
        and a cell computes its reference when it first needs it, so a
        design's cells run together and fork one build.  With
        ``jobs > 1`` a process pool computes the deduplicated
        references first, then the cells; duplicate cells execute once
        and fan out to every position.

        When the session is traced, the whole run is one
        ``runner.matrix`` span; every worker's streamed trace payload
        is adopted (re-identified and re-rooted) directly under it, so
        the parallel run reads as one tree.
        """
        job_list = list(matrix)
        n_workers = self.jobs if jobs is None else max(1, int(jobs))
        n_workers = min(n_workers, max(len(job_list), 1))

        ref_jobs: list[JobSpec] = []
        seen_refs: set[DesignRef] = set()
        for job in job_list:
            ref = job.reference_job()
            if ref is not None and job.design not in seen_refs \
                    and job.design not in self._ref_metrics:
                seen_refs.add(job.design)
                ref_jobs.append(ref)

        with obs.span(obs.MATRIX_SPAN, cells=len(job_list),
                      references=len(ref_jobs),
                      workers=n_workers) as matrix_span:
            if n_workers <= 1:
                return [self.run_job(job, return_flow=return_flows)
                        for job in job_list]
            return self._run_pool(job_list, ref_jobs, n_workers,
                                  return_flows, matrix_span)

    def _run_pool(self, job_list: list[JobSpec], ref_jobs: list[JobSpec],
                  n_workers: int, return_flows: bool,
                  matrix_span: Optional[obs.SpanRecord]) -> list[JobResult]:
        """The pooled phases of :meth:`run` (references, then cells)."""
        tracer = obs.active()

        def absorb(result: JobResult) -> None:
            # Re-root the worker's span tree + metric deltas under the
            # matrix span, once; the payload is consumed so no later
            # pass can count it again.
            if tracer is not None and result.trace is not None:
                parent = (matrix_span.span_id
                          if matrix_span is not None else None)
                tracer.adopt(result.trace, parent_id=parent)
                result.trace = None

        with ProcessPoolExecutor(
                max_workers=n_workers,
                initializer=_pool_init,
                initargs=(self.tech,
                          str(self.store.root) if self.store else None,
                          self.verify, return_flows)) as pool:
            # Phase 1: deduplicated upstream references.
            for result in pool.map(_pool_run, ref_jobs,
                                   [None] * len(ref_jobs)):
                absorb(result)
                self._ref_metrics.setdefault(
                    result.job.design,
                    (result.summary["worst_delta_ps"],
                     result.summary["skew_3sigma_ps"]))

            # Phase 2: the cells, duplicates submitted once.
            unique: dict[JobSpec, list[int]] = {}
            for i, job in enumerate(job_list):
                unique.setdefault(job, []).append(i)
            obs.counter("runner.cells_deduped").inc(
                len(job_list) - len(unique))
            future_of = {
                pool.submit(_pool_run, job, self._metrics_for(job)): job
                for job in unique
            }
            slots: list[Optional[JobResult]] = [None] * len(job_list)
            pending = set(future_of)
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    result = future.result()
                    absorb(result)
                    for i in unique[future_of[future]]:
                        slots[i] = result
        results = [r for r in slots if r is not None]
        assert len(results) == len(job_list)
        return results
