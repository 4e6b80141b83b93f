"""Tests of the benchmark's own arithmetic, catalog and correctness checks.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/tests

The smoke tests run each workload for a couple of seconds on the
default seed, so they exercise the expected-digest, cross-result and
verifier checks end to end.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
CATALOG = json.loads((BENCH_DIR / "catalog.json").read_text())


# -- percentiles: the ten-beyond rule, failures as infinite -------------------


def test_samples_beyond_p90_needs_one_hundred_samples():
    assert stats.samples_beyond(100, 0.9) == 10
    assert stats.samples_beyond(99, 0.9) == 9
    assert stats.quantile([1.0] * 99, 0.9) is None
    assert stats.quantile([1.0] * 100, 0.9) == 1.0


def test_median_is_always_reported():
    assert stats.quantile([3.0], 0.5) == 3.0
    assert stats.quantile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5
    assert stats.quantile([], 0.5) is None


def test_failures_count_as_infinite_latency():
    records = [{"ok": True, "latency_s": 0.5}, {"ok": False, "latency_s": 0.01},
               {"ok": True, "latency_s": 0.2}]
    lat = stats.latencies(records)
    assert lat == [0.5, math.inf, 0.2]
    # One failure in three moves the median up to the slower success.
    assert stats.quantile(lat, 0.5) == 0.5
    # Half failed: the median touches a failure and is infinite.
    assert stats.quantile([0.1, math.inf], 0.5) == math.inf


def test_p90_touching_a_failure_is_infinite():
    ok = [float(i) for i in range(90)]
    assert stats.quantile(ok + [math.inf] * 10, 0.9) == math.inf
    assert math.isfinite(stats.quantile(ok + [100.0] + [math.inf] * 9, 0.9))


def test_ratio_keeps_its_base():
    assert stats.ratio(2, 16) == {"value": 0.125, "num": 2, "den": 16}
    assert stats.ratio(0, 0) == {"value": None, "num": 0, "den": 0}
    assert run._fmt(stats.ratio(2, 16)) == "0.125 (2/16)"


def test_self_time_subtracts_the_union_of_children():
    records = [{"id": 1, "parent": None, "start_s": 0.0, "dur_s": 10.0},
               {"id": 2, "parent": 1, "start_s": 1.0, "dur_s": 3.0},
               {"id": 3, "parent": 1, "start_s": 2.0, "dur_s": 4.0},
               {"id": 4, "parent": 3, "start_s": 2.0, "dur_s": 1.0}]
    # Children cover [1, 6): overlap counted once, grandchild ignored.
    assert stats.self_time(records, 1) == pytest.approx(5.0)
    assert stats.self_time(records, 3) == pytest.approx(3.0)


def test_digest_ignores_float_noise_only():
    a = stats.digest({"p": 1.0000000001, "h": {"W1S1": 3}})
    assert a == stats.digest({"p": 1.0, "h": {"W1S1": 3}})
    assert a != stats.digest({"p": 1.0001, "h": {"W1S1": 3}})
    assert a != stats.digest({"p": 1.0, "h": {"W1S1": 4}})


# -- names, units, directions -------------------------------------------------


def test_benchmark_json_has_exactly_the_schema_keys():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["perfbench"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == \
        list(workloads.WORKLOADS)
    for w in BENCHMARK["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]


def test_every_metric_has_a_name_unit_and_direction():
    metrics = (BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
               + CATALOG["workload_metrics"])
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.match(m["name"]), m
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("higher", "lower"), m
    for m in BENCHMARK["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in BENCHMARK["end_to_end"])} \
        in BENCHMARK["end_to_end"]
    for m in BENCHMARK["per_layer"]:
        assert set(m) == {"name", "unit", "better"}


def test_per_layer_metrics_are_what_the_layers_report():
    produced = set(layers.layer_metrics([], {})) | {"trace.overhead_pct"}
    declared = {m["name"] for m in BENCHMARK["per_layer"]}
    linked = {n for link in CATALOG["layer_links"].values()
              for n in link["metrics"]}
    assert produced == declared == linked


def test_catalog_records_every_workload():
    assert set(CATALOG["workloads"]) == set(workloads.WORKLOADS)
    for record in CATALOG["workloads"].values():
        assert record["loop"] == "closed"
        assert record["clients"] in (1, 2)
        assert record["stresses"] and record["bypasses"]
        assert record["setup_repeats"] >= 1
    assert CATALOG["seed"]["default"] == workloads.DEFAULT_SEED
    e2e = {m["name"] for m in BENCHMARK["end_to_end"]} | \
        {m["name"] for m in CATALOG["workload_metrics"]}
    for link in CATALOG["layer_links"].values():
        for metric, workload in link["moves"]:
            assert metric in e2e and workload in workloads.WORKLOADS


# -- seeded inputs ------------------------------------------------------------


@pytest.mark.parametrize("make", [workloads.cold_compare,
                                  workloads.warm_replay,
                                  workloads.serve_mix])
def test_sequences_depend_on_the_seed_only(make):
    assert make(3, 20) == make(3, 20)
    assert make(3, 20) != make(4, 20)
    # Strata: sizes, generators and macros do not depend on the seed.
    shape = [(d["n_sinks"], d.get("generator"), d["n_blockages"])
             for d in make(3, 20)[0]]
    assert shape == [(d["n_sinks"], d.get("generator"), d["n_blockages"])
                     for d in make(4, 20)[0]]


def test_cold_compare_has_one_macro_design_in_eight():
    designs, requests = workloads.cold_compare(0, 24)
    assert len(designs) == len(requests) == 24
    assert sum(1 for d in designs if d["n_blockages"]) == 3
    assert len({d["name"] for d in designs}) == len(designs)
    assert sorted(r["design"] for r in requests) == \
        sorted(d["name"] for d in designs)
    sizes = [d["n_sinks"] for d in designs]
    assert min(sizes) == 64 and max(sizes) == 192


def test_seed_draws_cold_compare_order_and_slacks_not_designs():
    designs, requests = workloads.cold_compare(3, 24)
    other_designs, other_requests = workloads.cold_compare(4, 24)
    assert designs == other_designs
    assert [r["id"] for r in requests] != [r["id"] for r in other_requests]
    assert {r["body"]["slack"] for r in requests} <= \
        set(workloads._COMPARE_SLACKS)


def test_seed_draws_warm_replay_order_and_slacks_not_designs():
    designs, setup, replay = workloads.warm_replay(3, 20)
    other_designs, _, other_replay = workloads.warm_replay(4, 20)
    assert designs == other_designs
    assert [r["id"] for r in replay] != [r["id"] for r in other_replay]
    # Every set-up request recurs equally often in the replay.
    counts = {r["id"]: 0 for r in setup}
    for r in replay:
        counts[r["id"]] += 1
    assert set(counts.values()) == {len(replay) // len(setup)}


def test_seed_draws_serve_mix_order_not_designs():
    designs, _, rounds = workloads.serve_mix(3, 20)
    other_designs, _, other_rounds = workloads.serve_mix(4, 20)
    assert designs == other_designs
    assert rounds != other_rounds


def test_serve_mix_misses_are_fresh_and_hits_repeat():
    _, _, rounds = workloads.serve_mix(0, 20)
    seen: set[str] = set()
    for a, b in rounds:
        if a["id"] == b["id"]:  # the coalesced pair
            assert a["id"] not in seen
        seen.update((a["id"], b["id"]))
    ids = [r["id"] for pair in rounds for r in pair]
    # Per cycle: five computations, one coalesced, two repeats.
    assert len(set(ids)) == 5 * len(rounds) // 4


# -- correctness checks -------------------------------------------------------


def _out(records, cold=None):
    return {"records": records, "cold_digests": cold or {}}


def test_check_flags_a_changed_result():
    records = [{"id": "a", "ok": True, "digest": "x"},
               {"id": "a", "ok": True, "digest": "y"}]
    clean = {"checked": 1, "errors": [], "mismatches": []}
    correct, diag = run._check(9, _out(records), clean, {})
    assert not correct and "differs" in diag["problems"][0]
    correct, _ = run._check(9, _out(records[:1]), clean, {})
    assert correct
    # The traced loop must reproduce the untraced loop's results.
    correct, _ = run._check(9, _out(records[:1]), clean, {},
                            traced={"records": records[1:]})
    assert not correct


def test_check_counts_failures_without_calling_them_wrong():
    records = [{"id": "a", "ok": False, "error": "RuntimeError: no route"},
               {"id": "b", "ok": True, "digest": "d"}]
    clean = {"checked": 1, "errors": [], "mismatches": []}
    expected = {"a": "error:RuntimeError", "b": "d"}
    correct, diag = run._check(workloads.DEFAULT_SEED,
                               _out(records), clean, expected)
    assert correct and diag["expected_digests_checked"] == 1
    correct, _ = run._check(workloads.DEFAULT_SEED,
                            _out(records), clean, {"b": "other"})
    assert not correct


def test_check_fails_on_verifier_findings_and_warm_mismatch():
    clean = {"checked": 1, "errors": [], "mismatches": []}
    bad = {"checked": 1, "errors": ["a: VerificationError"],
           "mismatches": []}
    records = [{"id": "a", "ok": True, "digest": "d"}]
    assert not run._check(9, _out(records), bad, {})[0]
    assert not run._check(9, _out(records, {"a": "cold"}),
                          clean, {})[0]


# -- smoke runs ----------------------------------------------------------------


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_passes_its_checks(workload):
    proc = _bench("--workload", workload, "--seed", "0", "--seconds", "2",
                  "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], lines[-2]
    assert set(result["metrics"]) == {m["name"]
                                      for m in BENCHMARK["end_to_end"]}
    diagnostics = json.loads(lines[-2])["diagnostics"]
    assert diagnostics["expected_digests_checked"] >= 1
    assert diagnostics["verified_in_process"] >= 1
    for m in BENCHMARK["end_to_end"]:
        assert m["name"] in proc.stdout.split(lines[-2])[0]


def test_traced_smoke_run_reports_every_layer():
    proc = _bench("--workload", "serve-mix", "--seed", "0", "--seconds", "2",
                  "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"]
                                      for m in BENCHMARK["per_layer"]}
    assert result["metrics"]["serve.coalesced"]["value"] == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "cold-compare", "--seed", "1", "--seconds",
                  "2", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
