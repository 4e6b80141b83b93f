"""Shared fixtures.

Expensive artefacts (generated designs, built physical designs) are
session-scoped: tests treat them as read-only.  Tests that mutate state
(rule assignment, trimming) build their own copies via the factories.
"""

from __future__ import annotations

import pytest

from repro.designs import DesignSpec, generate_design
from repro.core.flow import PhysicalDesign, build_physical_design
from repro.tech import Technology, default_technology


TINY_SPEC = DesignSpec("tiny", n_sinks=24, die_edge=160.0,
                       aggressors_per_sink=2.0, seed=5)
SMALL_SPEC = DesignSpec("small", n_sinks=64, die_edge=280.0,
                        aggressors_per_sink=2.0, seed=6)


@pytest.fixture(scope="session", autouse=True)
def _isolated_artifact_cache(tmp_path_factory):
    """Point the content-addressed artifact store at a per-session tmp dir.

    Keeps test runs from reading (or polluting) the developer's
    persistent ``~/.cache/repro`` — stale cells from older code would
    otherwise leak into CLI/runner tests.
    """
    import os

    from repro.io.artifacts import CACHE_DIR_ENV

    old = os.environ.get(CACHE_DIR_ENV)
    os.environ[CACHE_DIR_ENV] = str(tmp_path_factory.mktemp("artifacts"))
    yield
    if old is None:
        os.environ.pop(CACHE_DIR_ENV, None)
    else:
        os.environ[CACHE_DIR_ENV] = old


@pytest.fixture(scope="session", autouse=True)
def _verify_all_flows():
    """Statically verify every flow result the suite produces.

    ``run_flow`` checks this environment variable and raises
    :class:`repro.verify.VerificationError` if any registered check
    reports an ERROR diagnostic — so an engine-coherence bug fails the
    suite loudly even in tests that only look at summary metrics.
    """
    import os

    os.environ["REPRO_VERIFY_FLOWS"] = "1"
    yield
    os.environ.pop("REPRO_VERIFY_FLOWS", None)


@pytest.fixture(scope="session")
def tech() -> Technology:
    return default_technology()


@pytest.fixture(scope="session")
def tiny_spec() -> DesignSpec:
    return TINY_SPEC


@pytest.fixture(scope="session")
def small_spec() -> DesignSpec:
    return SMALL_SPEC


@pytest.fixture(scope="session")
def tiny_design():
    """A 24-sink design; read-only (use make_tiny_physical to mutate)."""
    return generate_design(TINY_SPEC)


@pytest.fixture(scope="session")
def small_design():
    return generate_design(SMALL_SPEC)


@pytest.fixture(scope="session")
def tiny_physical(tech) -> PhysicalDesign:
    """Built physical of the tiny design; treat as read-only."""
    return build_physical_design(generate_design(TINY_SPEC), tech)


@pytest.fixture(scope="session")
def small_physical(tech) -> PhysicalDesign:
    """Built physical of the 64-sink design; treat as read-only."""
    return build_physical_design(generate_design(SMALL_SPEC), tech)


@pytest.fixture
def make_tiny_physical(tech):
    """Factory for a fresh, mutable tiny physical design."""
    def factory() -> PhysicalDesign:
        return build_physical_design(generate_design(TINY_SPEC), tech)
    return factory


@pytest.fixture
def make_small_physical(tech):
    def factory() -> PhysicalDesign:
        return build_physical_design(generate_design(SMALL_SPEC), tech)
    return factory
