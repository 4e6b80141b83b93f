"""Shared machinery for the experiment benchmarks.

The expensive artefact — the full (design x policy) flow matrix — is a
list of :class:`~repro.runner.JobSpec` cells executed once per session
by the :class:`~repro.runner.FlowRunner` and shared by every
table/figure module.  Budgets follow the reproduction protocol: each
design's robustness targets are pegged to its own all-NDR reference run
(15% slack) — a deduplicated upstream job of the runner — which is the
paper's operational definition of "as robust as all-NDR".

Set ``REPRO_BENCH_JOBS=N`` to fan the matrix out over ``N`` worker
processes; results are identical to the serial run (flows are
deterministic and every cell is content-addressed).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional, Sequence

import pytest

from repro import obs
from repro.designs import benchmark_suite, spec_by_name
from repro.core import FlowResult, Policy, RobustnessTargets
from repro.runner import FlowRunner, JobSpec

#: Designs used by the full-suite tables (largest capped for CI runtime).
TABLE_DESIGNS = ("ckt64", "ckt128", "ckt256", "ckt512", "ckt1024", "ckt2048")
#: The corpus slice beyond the synthetic suite: one hierarchical SoC,
#: one gated multi-domain SoC, one imported floorplan (smallest of each
#: family, capped for CI runtime).
CORPUS_DESIGNS = ("soc_h64", "soc_g128", "imp_uart")
TABLE_POLICIES = (Policy.NO_NDR, Policy.ALL_NDR, Policy.SMART)

#: The reproduction protocol's budget slack over the all-NDR reference.
PROTOCOL_SLACK = 0.15


def bench_jobs() -> int:
    """Worker processes for the bench matrix (``REPRO_BENCH_JOBS``)."""
    return max(1, int(os.environ.get("REPRO_BENCH_JOBS", "1")))


@dataclass
class SuiteMatrix:
    """The session's flow matrix, scheduled through the FlowRunner."""

    runner: FlowRunner
    flows: dict[tuple[str, str], FlowResult] = field(default_factory=dict)

    @property
    def tech(self):
        return self.runner.tech

    def targets_for(self, design_name: str) -> RobustnessTargets:
        return self.runner.targets_for(design_name, slack=PROTOCOL_SLACK)

    def ensure(self, designs: Sequence[str],
               policies: Sequence[Policy]) -> None:
        """Declare and execute a (designs x policies) sub-matrix.

        Missing cells run as one batch — in parallel when
        ``REPRO_BENCH_JOBS`` is set — instead of one hand-loop
        iteration at a time.
        """
        wanted = [(d, p) for d in designs for p in policies]
        missing = [JobSpec(design=d, policy=p, slack=PROTOCOL_SLACK)
                   for d, p in wanted if (d, p.value) not in self.flows]
        if not missing:
            return
        results = self.runner.run(missing, jobs=bench_jobs(),
                                  return_flows=True)
        for result in results:
            key = (result.job.design, result.job.policy.value)
            self.flows[key] = result.flow

    def flow(self, design_name: str, policy: Policy) -> FlowResult:
        key = (design_name, policy.value)
        if key not in self.flows:
            self.ensure((design_name,), (policy,))
        return self.flows[key]


def pytest_addoption(parser):
    # pytest owns --trace (its pdb hook), so the obs flag gets a
    # bench- prefix here even though the repro CLI spells it --trace.
    parser.addoption(
        "--bench-trace", nargs="?", const="", default=None, metavar="PATH",
        help="record an obs trace of the bench session; print the phase "
             "breakdown and write trace JSONL to PATH (bare --bench-trace "
             "skips the file)")


def _trace_opt(config) -> Optional[str]:
    return config.getoption("--bench-trace")


def pytest_configure(config):
    if _trace_opt(config) is not None:
        obs.enable("bench")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    tracer = obs.active()
    trace = _trace_opt(config)
    if trace is None or tracer is None:
        return
    from repro.obs.report import phase_breakdown

    terminalreporter.write_line("")
    terminalreporter.write_line(phase_breakdown(tracer).render())
    if trace:
        from repro.obs.export import export_jsonl

        out = export_jsonl(tracer, path=trace)
        terminalreporter.write_line(f"trace written to {out}")


_MATRIX: Optional[SuiteMatrix] = None


@pytest.fixture(scope="session")
def matrix() -> SuiteMatrix:
    # Artifact reuse within the session (shared builds, deduped
    # references) without trusting a stale persistent cache from an
    # older code state: the store lives in a fresh temp dir unless the
    # user explicitly points REPRO_CACHE_DIR somewhere durable.
    global _MATRIX
    if _MATRIX is None:
        import tempfile

        store = (os.environ.get("REPRO_CACHE_DIR")
                 or tempfile.mkdtemp(prefix="repro-bench-artifacts-"))
        _MATRIX = SuiteMatrix(runner=FlowRunner(store=store,
                                                jobs=bench_jobs()))
    return _MATRIX


@pytest.fixture(scope="session")
def tech():
    from repro.tech import default_technology
    return default_technology()


def emit(capsys, text: str) -> None:
    """Print experiment output through pytest's capture."""
    with capsys.disabled():
        print()
        print(text)


def suite_specs():
    return [spec for spec in benchmark_suite() if spec.name in TABLE_DESIGNS]


def corpus_specs():
    """The hierarchical/gated/imported slice of the corpus."""
    return [spec_by_name(name) for name in CORPUS_DESIGNS]
