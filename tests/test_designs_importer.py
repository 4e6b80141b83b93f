"""DEF-lite importer: validation diagnostics, building, round-trips."""

import json

import pytest

from repro.designs import (deflite_to_design, design_to_deflite,
                           import_design, load_deflite, save_deflite,
                           spec_by_name, validate_deflite)
from repro.designs.importer import IMPORT_CHECKS
from repro.designs.spec import resolve_source
from repro.io.design_json import design_to_dict
from repro.verify.diagnostics import VerificationError


def _doc():
    """A minimal valid DEF-lite document."""
    return {
        "deflite": 1,
        "name": "mini",
        "die": [0.0, 0.0, 100.0, 100.0],
        "clock": {"period_ps": 1000.0, "source_xy": [50.0, 0.0]},
        "pins": [{"name": "ff_0", "xy": [10.0, 10.0], "cap_ff": 1.8},
                 {"name": "ff_1", "xy": [90.0, 80.0]}],
        "blockages": [[30.0, 30.0, 50.0, 50.0]],
        "aggressors": [{"name": "sig_0", "driver_xy": [20.0, 20.0],
                        "sink_xys": [[25.0, 22.0]], "activity": 0.3,
                        "window_ps": [0.0, 400.0]}],
    }


def test_valid_document_is_clean_and_builds():
    assert not validate_deflite(_doc()).has_errors
    design = deflite_to_design(_doc())
    assert design.name == "mini"
    assert len(design.clock_sinks) == 2
    assert len(design.signal_nets) == 1
    assert design.signal_nets[0].window == (0.0, 400.0)
    assert len(design.blockages) == 1


@pytest.mark.parametrize("mutate,rule", [
    (lambda d: d.update(deflite=99), "import-schema"),
    (lambda d: d.pop("die"), "import-schema"),
    (lambda d: d.update(name=""), "import-schema"),
    (lambda d: d["pins"].clear(), "import-schema"),
    (lambda d: d.update(die=[0.0, 0.0, 0.0, 100.0]), "import-geometry"),
    (lambda d: d["pins"][0].update(xy=[500.0, 10.0]), "import-geometry"),
    (lambda d: d["pins"][0].update(xy=[40.0, 40.0]), "import-geometry"),
    (lambda d: d["clock"].update(source_xy=[-5.0, 0.0]), "import-geometry"),
    (lambda d: d["clock"].update(period_ps=-1.0), "import-electrical"),
    (lambda d: d["pins"][0].update(cap_ff=0.0), "import-electrical"),
    (lambda d: d["aggressors"][0].update(activity=1.5), "import-electrical"),
    (lambda d: d["aggressors"][0].update(window_ps=[400.0, 100.0]),
     "import-electrical"),
    (lambda d: d["pins"].append(dict(d["pins"][0])), "import-names"),
    (lambda d: d["aggressors"].append(dict(d["aggressors"][0])),
     "import-names"),
])
def test_corrupt_documents_are_diagnosed(mutate, rule):
    doc = _doc()
    mutate(doc)
    report = validate_deflite(doc)
    assert report.has_errors
    assert any(diag.rule == rule for diag in report.diagnostics)


def test_window_past_period_is_a_warning_only():
    doc = _doc()
    doc["aggressors"][0]["window_ps"] = [0.0, 1500.0]
    report = validate_deflite(doc)
    assert not report.has_errors
    assert any("past the clock period" in diag.message
               for diag in report.diagnostics)


def test_validate_runs_exactly_the_import_checks():
    from repro.verify import FLOW_CHECKS

    report = validate_deflite(_doc())
    assert report.checks_run == sorted(c.rule for c in IMPORT_CHECKS)
    assert report.checks_run == ["import-electrical", "import-geometry",
                                 "import-names", "import-schema"]
    assert all(c.kind == "import" for c in IMPORT_CHECKS)
    assert not {c.rule for c in FLOW_CHECKS} & set(report.checks_run)


def test_import_design_raises_on_errors(tmp_path):
    doc = _doc()
    doc["pins"][0]["xy"] = [500.0, 10.0]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(VerificationError):
        import_design(path)


def test_load_deflite_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_deflite(path)
    path.write_text("[1, 2]")
    with pytest.raises(ValueError, match="JSON object"):
        load_deflite(path)


@pytest.mark.parametrize("name", ["imp_uart", "imp_noc"])
def test_packaged_data_files_validate_and_import(name):
    source = resolve_source(spec_by_name(name))
    assert not validate_deflite(source).has_errors
    design = import_design(source, name=name)
    assert design.name == name
    assert len(design.clock_sinks) == spec_by_name(name).n_sinks


def test_import_export_import_round_trips(tmp_path):
    first = deflite_to_design(_doc())
    path = tmp_path / "rt.json"
    save_deflite(first, path)
    second = import_design(path)
    assert design_to_dict(second) == design_to_dict(first)
    # And the exported document itself is stable under a second pass.
    assert design_to_deflite(second) == design_to_deflite(first)


def test_round_trip_preserves_generated_design(tmp_path):
    design = import_design(resolve_source(spec_by_name("imp_noc")),
                           name="imp_noc")
    path = tmp_path / "noc.json"
    save_deflite(design, path)
    again = import_design(path, name="imp_noc")
    assert design_to_dict(again) == design_to_dict(design)
