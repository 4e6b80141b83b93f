"""The stable repro.api facade."""

from __future__ import annotations

import dataclasses
import json

import pytest

import repro
from repro.api import (CompareReport, CompareRequest, SweepReport,
                       SweepRequest, compare, sweep, trace_report)


@pytest.fixture
def tiny_ref(tmp_path, tiny_design):
    from repro.io import save_design

    path = tmp_path / "tiny.json"
    save_design(tiny_design, path)
    return str(path)


def test_api_is_reexported_from_package_root():
    assert repro.compare is compare
    assert repro.sweep is sweep
    assert "compare" in repro.__all__ and "api" in repro.__all__
    assert "compare" in repro.api.__all__


def test_compare_returns_typed_report(tiny_ref):
    report = compare(CompareRequest(design=tiny_ref, slack=0.15))
    assert isinstance(report, CompareReport)
    assert {c.policy for c in report.cells} == {"no-ndr", "all-ndr", "smart"}
    smart = report.cell("smart")
    assert smart.feasible and smart.power_uw > 0
    assert smart.upgraded_wires > 0
    assert report.cell("all-ndr").upgraded_wires \
        == sum(smart.rule_histogram.values())
    p_all = report.cell("all-ndr").power_uw
    expect = 100.0 * (p_all - smart.power_uw) / p_all
    assert report.smart_saving_pct == pytest.approx(expect)
    with pytest.raises(KeyError):
        report.cell("smart-shield")
    # Plain data: JSON round-trips without custom encoders.
    json.dumps(dataclasses.asdict(report))


def test_sweep_returns_points_in_slack_order(tiny_ref):
    report = sweep(SweepRequest(design=tiny_ref, slacks=(0.2, 0.6)), jobs=1)
    assert isinstance(report, SweepReport)
    assert [p.slack for p in report.points] == [0.6, 0.2]
    assert all(p.power_uw > 0 for p in report.points)
    json.dumps(dataclasses.asdict(report))


def test_single_design_requests_take_no_selector():
    """One request reports one design: a selector is an unknown name,
    never a mix of the designs it matches under the selector's label."""
    with pytest.raises(KeyError, match="no design named"):
        compare(CompareRequest(design="ckt6?"), store=False)
    with pytest.raises(KeyError, match="no design named"):
        sweep(SweepRequest(design="ckt6?"), store=False)


def test_trace_report_renders_file(tmp_path):
    from repro import obs
    from repro.obs.export import export_jsonl
    from repro.obs.spans import Tracer

    tracer = Tracer("api")
    with tracer.span(obs.CELL_SPAN, cell="x"):
        pass
    path = export_jsonl(tracer, path=tmp_path / "t.jsonl")
    text = trace_report(path)
    assert "phase breakdown" in text and "cell timeline" in text
