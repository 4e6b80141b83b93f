"""ArtifactStore: content addressing, round-trips, corruption recovery."""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro import obs
from repro.core.stages import BuildParams, build_stage
from repro.designs import generate_design
from repro.io.artifacts import (ArtifactStore, content_key,
                                design_fingerprint, fingerprint,
                                technology_fingerprint)


@pytest.fixture
def store(tmp_path) -> ArtifactStore:
    return ArtifactStore(tmp_path / "artifacts")


def _build_key(design, tech, params=BuildParams()):
    return content_key("build",
                       design=design_fingerprint(design),
                       tech=technology_fingerprint(tech),
                       params=params)


# -- fingerprinting -----------------------------------------------------------


def test_fingerprint_is_stable_and_discriminating(tiny_spec, small_spec):
    assert fingerprint(tiny_spec) == fingerprint(tiny_spec)
    assert fingerprint(tiny_spec) != fingerprint(small_spec)


def test_fingerprint_rejects_unhashable_objects():
    with pytest.raises(TypeError):
        fingerprint(object())


def test_design_fingerprint_tracks_content(tiny_design, small_design):
    assert design_fingerprint(tiny_design) == design_fingerprint(tiny_design)
    assert design_fingerprint(tiny_design) != design_fingerprint(small_design)


def test_design_fingerprint_hashes_its_canonical_payload():
    """The direct hash keeps every build cache key: it equals
    ``fingerprint`` of the name-less payload over the corpus."""
    from repro.designs import iter_specs
    from repro.io.design_json import design_to_dict

    checked = 0
    for spec in iter_specs():
        if spec.n_sinks > 2048:
            continue
        design = generate_design(spec)
        payload = design_to_dict(design)
        payload.pop("name")
        assert design_fingerprint(design) == fingerprint(payload), spec.name
        checked += 1
    assert checked >= 10


def test_content_key_varies_with_tech_and_params(tiny_design, tech):
    base = _build_key(tiny_design, tech)
    assert base == _build_key(tiny_design, tech)
    # Different stage parameters -> different artifact.
    assert base != _build_key(tiny_design, tech,
                              BuildParams(max_stage_cap=11.0))
    # Different technology -> different artifact.
    slow_tech = dataclasses.replace(tech, max_slew=tech.max_slew * 2.0)
    assert base != _build_key(tiny_design, slow_tech)


# -- store round-trips --------------------------------------------------------


def test_build_artifact_round_trip(store, tiny_design, tech):
    physical = build_stage(tiny_design, tech, store=store)
    key = _build_key(tiny_design, tech)
    assert store.path_for(key).exists()

    loaded = store.load(key)
    assert loaded is not None
    assert loaded is not physical  # always a fresh object graph
    assert len(loaded.routing.wires) == len(physical.routing.wires)
    assert loaded.refine.extraction.network.total_wire_cap == \
        pytest.approx(physical.refine.extraction.network.total_wire_cap)


def _count(tracer, name):
    """An ``artifacts.*`` counter of ``tracer`` (0 when never bumped)."""
    return tracer.metrics.value(name) if name in tracer.metrics else 0.0


def test_cache_hit_on_identical_spec(store, tiny_spec, tech):
    first = build_stage(generate_design(tiny_spec), tech, store=store)
    with obs.capture("hit") as tracer:
        second = build_stage(generate_design(tiny_spec), tech, store=store)
    assert _count(tracer, "artifacts.hits") == 1
    assert second is not first
    assert second.routing.clock_wirelength() == \
        pytest.approx(first.routing.clock_wirelength())


def test_cache_miss_when_params_or_tech_change(store, tiny_design, tech):
    build_stage(tiny_design, tech, store=store)
    with obs.capture("miss") as tracer:
        build_stage(tiny_design, tech, BuildParams(max_stage_cap=9.0),
                    store=store)
        slow_tech = dataclasses.replace(tech, max_slew=tech.max_slew * 2.0)
        build_stage(tiny_design, slow_tech, store=store)
    assert _count(tracer, "artifacts.misses") == 2


def test_snapshots_are_mutation_safe(store, tiny_design, tech):
    """Mutating a cache hit must not poison later hits."""
    first = build_stage(tiny_design, tech, store=store)
    wl = first.routing.clock_wirelength()
    loaded = store.load(_build_key(tiny_design, tech))
    rule = loaded.tech.rules[-1]
    for wire in loaded.routing.clock_wires:
        wire.rule = rule  # vandalise the snapshot
    again = build_stage(tiny_design, tech, store=store)
    assert all(w.rule.is_default for w in again.routing.clock_wires)
    assert again.routing.clock_wirelength() == pytest.approx(wl)


# -- corruption ---------------------------------------------------------------


def test_corrupt_artifact_is_a_clean_rebuild(store, tiny_design, tech):
    physical = build_stage(tiny_design, tech, store=store)
    key = _build_key(tiny_design, tech)
    path = store.path_for(key)
    path.write_bytes(b"not a pickle at all")

    assert store.load(key) is None          # corruption -> miss
    assert not path.exists()                # poisoned entry dropped

    rebuilt = build_stage(tiny_design, tech, store=store)  # clean rebuild
    assert rebuilt.routing.clock_wirelength() == \
        pytest.approx(physical.routing.clock_wirelength())
    assert path.exists()                    # re-saved


def test_truncated_pickle_is_a_miss(store):
    store.save("k" * 64, {"payload": list(range(100))})
    path = store.path_for("k" * 64)
    path.write_bytes(pickle.dumps({"payload": 1})[:-5])
    assert store.load("k" * 64) is None


def test_missing_key_is_a_miss(store):
    assert store.load("0" * 64) is None
    assert not store.path_for("0" * 64).exists()
    store.discard("0" * 64)  # no-op, no raise


# -- cache tier: LRU eviction, GC --------------------------------------------


def _fill(store, n, payload_bytes=2000):
    for i in range(n):
        store.save(f"{i}" * 64, b"x" * payload_bytes)


def test_gc_evicts_least_recently_used_first(tmp_path):
    import os

    store = ArtifactStore(tmp_path)
    _fill(store, 4)
    # Age the files deterministically: key 0 oldest ... key 3 newest.
    for i in range(4):
        os.utime(store.path_for(f"{i}" * 64), (1000.0 + i, 1000.0 + i))
    # Touch key 0 by loading it: it becomes the most recent.
    assert store.load("0" * 64) is not None
    sizes = [size for _, _, size, _ in store.disk_entries()]
    budget = sum(sizes) - 1  # force exactly one eviction
    swept = store.gc(max_bytes=budget)
    assert swept["evicted"] == 1
    assert not store.path_for("1" * 64).exists()  # the oldest untouched entry
    assert store.path_for("0" * 64).exists()      # LRU refresh saved it


def test_gc_reports_only_without_budget(tmp_path):
    store = ArtifactStore(tmp_path)
    _fill(store, 3)
    swept = store.gc()  # no max_disk_bytes, no override
    assert swept["evicted"] == 0
    assert swept["kept_bytes"] == store.stats()["disk_bytes"] > 0


def test_save_triggers_gc_under_configured_budget(tmp_path):
    store = ArtifactStore(tmp_path, max_disk_bytes=5000)
    with obs.capture("gc") as tracer:
        _fill(store, 5)
    stats = store.stats()
    assert stats["disk_bytes"] <= 5000
    evictions = _count(tracer, "artifacts.evictions")
    assert evictions > 0 and _count(tracer, "artifacts.evicted_bytes") > 0
    assert stats["disk_entries"] == 5 - evictions
    assert stats["disk_bytes"] == sum(
        path.stat().st_size for _, path, _, _ in store.disk_entries())


def test_unwritable_root_degrades_to_no_cache(tmp_path):
    # A root under a regular file cannot be created, even by root (a
    # permission bit would not stop a superuser).
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    store = ArtifactStore(blocker / "artifacts")
    with obs.capture("unwritable") as tracer:
        store.save("b" * 64, 42)            # disk write fails silently
        assert store.load("b" * 64) is None
    assert not store.path_for("b" * 64).exists()
    assert _count(tracer, "artifacts.misses") == 1
    assert store.gc(max_bytes=0)["kept_bytes"] == 0
