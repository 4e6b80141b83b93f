"""Tests for the standalone unit-hygiene linter.

The U001/U002 scanners live in :mod:`repro.analysis.rules_units`;
these tests exercise its path-based API and the ``main()`` entry point
CI calls, including the shared ``# static: ok[U00x]`` suppression
syntax.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import rules_units


def _lint_source(tmp_path: Path, source: str, name: str = "sample.py"):
    path = tmp_path / name
    path.write_text(source)
    return rules_units.lint_file(path)


def test_u001_flags_float_literal_equality(tmp_path):
    findings = _lint_source(tmp_path, "x = 1.5\nif x == 0.0:\n    pass\n")
    assert [f.rule for f in findings] == ["U001"]
    assert findings[0].line == 2


def test_u001_flags_not_equal_and_negative_literals(tmp_path):
    findings = _lint_source(tmp_path, "ok = value != -2.5\n")
    assert [f.rule for f in findings] == ["U001"]


def test_u001_ignores_ordering_comparisons(tmp_path):
    findings = _lint_source(
        tmp_path, "if x <= 0.0 or y > 1.5:\n    pass\n")
    assert findings == []


def test_u001_ignores_integer_equality(tmp_path):
    assert _lint_source(tmp_path, "if n == 0:\n    pass\n") == []


def test_u002_flags_conversion_constants(tmp_path):
    findings = _lint_source(
        tmp_path, "period = 1000.0\nres = x * 1e-3\n")
    assert [f.rule for f in findings] == ["U002", "U002"]
    assert [f.line for f in findings] == [1, 2]


def test_u002_allows_tolerances(tmp_path):
    assert _lint_source(tmp_path, "tol = 1e-9\neps = 1e-6\n") == []


def test_u002_exempts_units_module(tmp_path):
    assert _lint_source(tmp_path, "NS = 1000.0\n", name="units.py") == []


def test_static_ok_marker_silences_the_matching_code(tmp_path):
    findings = _lint_source(
        tmp_path,
        "a = 1000.0  # static: ok[U002] scale factor documented here\n"
        "b = x == 1.0  # static: ok[U001] exact sentinel\n"
        "c = 1000.0\n")
    assert [f.line for f in findings] == [3]


def test_static_ok_marker_is_code_specific(tmp_path):
    findings = _lint_source(
        tmp_path, "a = x == 1000.0  # static: ok[U002] wrong code\n")
    assert [f.rule for f in findings] == ["U001"]


def test_syntax_error_reported_as_u000(tmp_path):
    findings = _lint_source(tmp_path, "def broken(:\n")
    assert [f.rule for f in findings] == ["U000"]


def test_main_exit_codes(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert rules_units.main([str(clean)]) == 0

    dirty = tmp_path / "dirty.py"
    dirty.write_text("if x == 0.0:\n    pass\n")
    assert rules_units.main([str(dirty)]) == 1
    out = capsys.readouterr()
    assert "U001" in out.out
    assert "1 finding(s)" in out.err


def test_repo_sources_are_clean():
    repo = Path(__file__).resolve().parent.parent
    findings = rules_units.lint_paths([repo / "src", repo / "tools"])
    assert not findings, "\n".join(f.render() for f in findings)


def test_default_paths_cover_benchmarks_too():
    repo = Path(__file__).resolve().parent.parent
    defaults = rules_units.default_paths()
    assert repo / "src" in defaults
    assert repo / "tools" in defaults
    assert repo / "benchmarks" in defaults


def test_main_without_args_lints_the_default_trees(capsys):
    assert rules_units.main([]) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("snippet", [
    "x = {1.0: 'a'}[key]",       # float literal, but no ==/!=
    "y = f(0.0)",                # argument position
    "z = [0.0, 1.0]",            # container literal
])
def test_non_comparison_float_literals_pass(tmp_path, snippet):
    assert _lint_source(tmp_path, snippet + "\n") == []
