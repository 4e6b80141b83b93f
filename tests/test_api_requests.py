"""The typed request schema: round-trips, strictness, shims, dispatch."""

from __future__ import annotations

import json

import pytest

from repro.api import (REQUEST_KINDS, REQUEST_SCHEMA, CompareRequest,
                       FlowRequest, LintRequest, SweepRequest, compare,
                       report_to_dict, request_field_default,
                       request_from_dict, sweep)


@pytest.fixture
def tiny_ref(tmp_path, tiny_design):
    from repro.io import save_design

    path = tmp_path / "tiny.json"
    save_design(tiny_design, path)
    return str(path)


# -- round-trips --------------------------------------------------------------


@pytest.mark.parametrize("request_obj", [
    FlowRequest(design="ckt64"),
    FlowRequest(design="ckt64", policy="all-ndr", slack=None,
                random_seed=3),
    CompareRequest(design="ckt64", slack=0.4),
    SweepRequest(design="ckt64", slacks=(0.5, 0.2)),
    LintRequest(design="ckt64", kinds=("drc",)),
])
def test_exact_json_round_trip(request_obj):
    wire = json.loads(json.dumps(request_obj.to_dict()))
    assert wire["schema"] == REQUEST_SCHEMA
    assert wire["kind"] == request_obj.KIND
    rebuilt = type(request_obj).from_dict(wire)
    assert rebuilt == request_obj
    assert rebuilt.to_dict() == request_obj.to_dict()
    # The generic dispatcher lands on the same object.
    assert request_from_dict(wire) == request_obj


def test_unknown_fields_are_rejected():
    wire = CompareRequest(design="x").to_dict()
    wire["slcak"] = 0.2  # the typo this strictness exists to catch
    with pytest.raises(ValueError, match="slcak"):
        CompareRequest.from_dict(wire)


def test_wrong_schema_and_kind_are_rejected():
    wire = SweepRequest(design="x").to_dict()
    with pytest.raises(ValueError, match="schema"):
        SweepRequest.from_dict({**wire, "schema": REQUEST_SCHEMA + 1})
    with pytest.raises(ValueError, match="kind"):
        CompareRequest.from_dict(wire)
    with pytest.raises(ValueError, match="unknown request kind"):
        request_from_dict({"kind": "explode", "design": "x"})
    with pytest.raises(ValueError, match="does not match"):
        request_from_dict(wire, kind="compare")
    with pytest.raises(ValueError, match="no 'kind'"):
        request_from_dict({"design": "x"})


def test_endpoint_kind_fills_missing_tag():
    parsed = request_from_dict({"design": "ckt64"}, kind="run")
    assert parsed == FlowRequest(design="ckt64")
    assert set(REQUEST_KINDS) == {"run", "compare", "sweep", "lint"}


# -- validation ---------------------------------------------------------------


def test_requests_validate_eagerly():
    with pytest.raises(ValueError):
        FlowRequest(design="")
    with pytest.raises(ValueError):
        FlowRequest(design="x", policy="bogus")
    with pytest.raises(ValueError):
        SweepRequest(design="x", slacks=())
    with pytest.raises(ValueError):
        LintRequest(design="")


@pytest.mark.parametrize("kinds", [("drcc",), ("static",), ("drc", "import")],
                         ids=["typo", "static", "import"])
def test_lint_kinds_name_flow_check_kinds(kinds):
    with pytest.raises(ValueError, match="drc and oracle"):
        LintRequest(design="ckt64", kinds=kinds)
    with pytest.raises(ValueError, match="drc and oracle"):
        request_from_dict({"kind": "lint", "design": "ckt64",
                           "kinds": list(kinds)})
    LintRequest(design="ckt64", kinds=("drc", "oracle"))


def test_numeric_fields_are_checked_against_the_flow_ranges():
    # The edges the flow accepts stay legal.
    FlowRequest(design="x", slack=None, random_fraction=0.0,
                lambda_track=0.0)
    FlowRequest(design="x", slack=0, random_fraction=1, random_seed=7)
    CompareRequest(design="x", slack=0.0)
    SweepRequest(design="x", slacks=(0, 0.6))
    for bad in ({"slack": -0.1}, {"random_fraction": 1.5},
                {"random_fraction": -0.1}, {"lambda_track": -1.0}):
        with pytest.raises(ValueError):
            FlowRequest(design="x", **bad)
    for bad in ({"slack": "0.2"}, {"slack": True}, {"lambda_track": None},
                {"random_fraction": "0.3"}, {"random_seed": 1.5},
                {"random_seed": False}):
        with pytest.raises(TypeError):
            FlowRequest(design="x", **bad)
    with pytest.raises(ValueError):
        CompareRequest(design="x", slack=-0.1)
    with pytest.raises(ValueError):
        SweepRequest(design="x", slacks=(0.3, -0.1))
    with pytest.raises(TypeError):
        SweepRequest(design="x", slacks=("0.2",))


def test_sweep_slacks_coerce_to_float_tuple():
    req = SweepRequest(design="x", slacks=[1, 0.5])
    assert req.slacks == (1.0, 0.5)
    assert all(isinstance(s, float) for s in req.slacks)


def test_request_field_default_is_the_cli_source_of_truth():
    assert request_field_default(FlowRequest, "slack") == 0.15
    assert request_field_default(CompareRequest, "slack") == 0.15
    assert request_field_default(SweepRequest, "slacks") == (0.6, 0.3, 0.15)
    with pytest.raises(KeyError):
        request_field_default(FlowRequest, "nope")
    with pytest.raises(ValueError):
        request_field_default(FlowRequest, "design")  # required field


# -- content keys -------------------------------------------------------------


def test_content_key_tracks_design_content(tmp_path, tiny_design,
                                           small_design):
    from repro.io import save_design

    path = tmp_path / "d.json"
    save_design(tiny_design, path)
    ref = str(path)
    key = CompareRequest(design=ref).content_key()
    assert key == CompareRequest(design=ref).content_key()
    # Same textual ref, different file content -> different key.
    save_design(small_design, path)
    assert CompareRequest(design=ref).content_key() != key


def test_content_key_discriminates_kind_and_fields():
    keys = {
        FlowRequest(design="ckt64").content_key(),
        FlowRequest(design="ckt64", random_seed=1).content_key(),
        CompareRequest(design="ckt64").content_key(),
        SweepRequest(design="ckt64").content_key(),
    }
    assert len(keys) == 4


# -- entry-point argument checks ----------------------------------------------


def test_request_form_rejects_stray_kwargs(tiny_ref):
    with pytest.raises(TypeError, match="unexpected keyword"):
        compare(CompareRequest(design=tiny_ref), slack=0.2)
    with pytest.raises(TypeError, match="unexpected keyword"):
        sweep(SweepRequest(design=tiny_ref), slacks=(0.1,))
    # A bare design string is not a request.
    with pytest.raises(TypeError, match="CompareRequest"):
        compare(tiny_ref)
    with pytest.raises(TypeError, match="SweepRequest"):
        sweep(tiny_ref)


# -- report wire form ---------------------------------------------------------


def test_report_to_dict_round_trips_json(tiny_ref):
    report = compare(CompareRequest(design=tiny_ref, slack=0.15))
    wire = json.loads(json.dumps(report_to_dict(report)))
    assert wire["kind"] == "compare"
    assert wire["design"] == tiny_ref
    assert len(wire["cells"]) == 3
    with pytest.raises(TypeError):
        report_to_dict(object())
