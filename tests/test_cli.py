"""CLI surface."""

import json

import pytest

from repro.cli import build_parser, main


def test_parser_subcommands():
    parser = build_parser()
    args = parser.parse_args(["run", "--design", "ckt64"])
    assert args.command == "run" and args.policy == "smart"
    args = parser.parse_args(["compare", "--design", "ckt64"])
    assert args.command == "compare" and args.slack == 0.15
    args = parser.parse_args(["sweep", "--design", "ckt64",
                              "--slacks", "0.5,0.2"])
    assert args.slacks == "0.5,0.2"


def test_missing_command_errors():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run_smart_on_tiny_design(tmp_path, capsys, tiny_design):
    from repro.io import save_design

    design_path = tmp_path / "d.json"
    save_design(tiny_design, design_path)
    rules_path = tmp_path / "rules.json"
    report_path = tmp_path / "wires.txt"
    code = main(["run", "--design", str(design_path),
                 "--policy", "smart",
                 "--save-rules", str(rules_path),
                 "--wire-report", str(report_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "smart" in out and "yes" in out
    assert rules_path.exists() and report_path.exists()
    payload = json.loads(rules_path.read_text())
    assert payload["schema"] == 1


def test_run_no_ndr_exits_nonzero_when_infeasible(tmp_path, capsys,
                                                  tiny_design):
    from repro.io import save_design

    design_path = tmp_path / "d.json"
    save_design(tiny_design, design_path)
    code = main(["run", "--design", str(design_path), "--policy", "no-ndr"])
    out = capsys.readouterr().out
    assert "no-ndr" in out
    assert code == 1  # infeasible -> nonzero exit


def test_compare_prints_summary(tmp_path, capsys, tiny_design):
    from repro.io import save_design

    design_path = tmp_path / "d.json"
    save_design(tiny_design, design_path)
    code = main(["compare", "--design", str(design_path)])
    out = capsys.readouterr().out
    assert code == 0
    for token in ("no-ndr", "all-ndr", "smart", "saves"):
        assert token in out


def test_run_json_output(tmp_path, capsys, tiny_design):
    from repro.io import save_design

    design_path = tmp_path / "d.json"
    save_design(tiny_design, design_path)
    code = main(["run", "--design", str(design_path), "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["policy"] == "smart"
    assert payload["feasible"] is True
    assert payload["summary"]["power_uw"] > 0
    assert sum(payload["rule_histogram"].values()) > 0


def test_compare_json_parallel_matches_serial(tmp_path, capsys, tiny_design):
    """`--jobs 2` must reproduce the serial summaries bit for bit."""
    from repro.io import save_design

    design_path = tmp_path / "d.json"
    save_design(tiny_design, design_path)
    code = main(["--no-cache", "compare", "--design", str(design_path),
                 "--json"])
    serial = json.loads(capsys.readouterr().out)
    assert code == 0
    code = main(["--no-cache", "compare", "--design", str(design_path),
                 "--json", "--jobs", "2"])
    parallel = json.loads(capsys.readouterr().out)
    assert code == 0

    def strip_runtimes(payload):
        for row in payload["rows"]:
            row.pop("runtime_s")
        return payload

    assert strip_runtimes(parallel) == strip_runtimes(serial)
    assert isinstance(serial["smart_saving_pct"], float)
    assert {row["policy"] for row in serial["rows"]} == \
        {"no-ndr", "all-ndr", "smart"}


def test_cached_rerun_marks_cells_cached(tmp_path, capsys, tiny_design):
    from repro.io import save_design

    design_path = tmp_path / "d.json"
    save_design(tiny_design, design_path)
    main(["compare", "--design", str(design_path), "--json"])
    cold = json.loads(capsys.readouterr().out)
    main(["compare", "--design", str(design_path), "--json"])
    warm = json.loads(capsys.readouterr().out)
    assert all(row["cached"] for row in warm["rows"])
    for c, w in zip(cold["rows"], warm["rows"]):
        assert c["summary"] == w["summary"]


def test_trace_flag_records_and_renders(tmp_path, capsys, tiny_design):
    """--trace writes a valid JSONL trace; `repro trace` renders it."""
    from repro import obs
    from repro.io import save_design
    from repro.obs.export import load_trace

    design_path = tmp_path / "d.json"
    save_design(tiny_design, design_path)
    trace_path = tmp_path / "trace.jsonl"
    code = main(["compare", "--design", str(design_path),
                 "--trace", str(trace_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "phase breakdown" in out
    assert obs.active() is None  # main() tears the tracer down

    trace = load_trace(trace_path)
    matrix = [s for s in trace.spans if s.name == obs.MATRIX_SPAN]
    cells = [s for s in trace.spans if s.name == obs.CELL_SPAN]
    assert len(matrix) == 1
    assert len(cells) >= 3
    assert all(c.parent_id == matrix[0].span_id for c in cells)

    code = main(["trace", str(trace_path)])
    out = capsys.readouterr().out
    assert code == 0
    for section in ("phase breakdown", "cell timeline", "critical path",
                    "metrics"):
        assert section in out

    code = main(["trace", str(trace_path), "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["meta"]["schema"] == 1
    assert "runner.cell" in payload["phase_totals"]


def test_trace_subcommand_rejects_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    code = main(["trace", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "trace:" in err
    assert main(["trace", str(tmp_path / "missing.jsonl")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command,design", [
    ("run", "nope"),
    ("compare", "ckt6?"),
    ("sweep", "missing.json"),
    ("lint", "nope"),
])
def test_unresolvable_design_exits_2_with_one_line(tmp_path, monkeypatch,
                                                   capsys, command, design):
    monkeypatch.chdir(tmp_path)  # "missing.json" names no file here
    code = main([command, "--design", design])
    out, err = capsys.readouterr()
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 1, err
    assert lines[0].startswith(
        f"repro {command}: cannot resolve design '{design}': "), err
    assert "Traceback" not in err and out == ""


def test_suite_json_flag_parses():
    args = build_parser().parse_args(["suite", "--json", "--jobs", "2"])
    assert args.command == "suite" and args.json and args.jobs == 2
    args = build_parser().parse_args(["compare", "--design", "ckt64",
                                      "--trace"])
    assert args.trace == ""
    args = build_parser().parse_args(["compare", "--design", "ckt64"])
    assert args.trace is None


def test_sweep_prints_rows(tmp_path, capsys, tiny_design):
    from repro.io import save_design

    design_path = tmp_path / "d.json"
    save_design(tiny_design, design_path)
    code = main(["sweep", "--design", str(design_path),
                 "--slacks", "0.6,0.2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0.60" in out and "0.20" in out


def test_run_after_compare_answers_from_the_record(tmp_path, capsys,
                                                   tiny_design, monkeypatch):
    """A plain run reads the record; an output that needs the flow computes it."""
    from repro.io import save_design
    from repro.io.artifacts import CACHE_DIR_ENV, ArtifactStore

    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_VERIFY_FLOWS", raising=False)
    loaded: list[str] = []
    original = ArtifactStore.load

    def spy(self, key):
        obj = original(self, key)
        loaded.append(type(obj).__name__)
        return obj

    monkeypatch.setattr(ArtifactStore, "load", spy)
    design_path = tmp_path / "d.json"
    save_design(tiny_design, design_path)
    design = ["--design", str(design_path)]
    assert main(["compare", *design, "--json"]) == 0
    smart, = [row for row in json.loads(capsys.readouterr().out)["rows"]
              if row["policy"] == "smart"]

    loaded.clear()
    assert main(["run", *design, "--policy", "smart", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cached"] and payload["summary"] == smart["summary"]
    assert "FlowResult" not in loaded

    # The first flow reader recomputes the cell and stores its flow, the
    # second loads it; both write the rules a cold run writes.
    rules = [tmp_path / f"r{i}.json" for i in range(3)]
    assert main(["run", *design, "--save-rules", str(rules[0])]) == 0
    assert "FlowResult" not in loaded
    assert main(["run", *design, "--save-rules", str(rules[1])]) == 0
    assert "FlowResult" in loaded
    assert main(["--no-cache", "run", *design,
                 "--save-rules", str(rules[2])]) == 0
    capsys.readouterr()
    assert rules[0].read_text() == rules[1].read_text() \
        == rules[2].read_text()
