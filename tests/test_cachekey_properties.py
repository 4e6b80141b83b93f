"""Property tests for flow-cell cache-key soundness.

The static analyzer's C-codes prove the *source* reads what the key
hashes; these tests prove the *values* behave: perturbing any hashed
:class:`~repro.runner.matrix.JobSpec` field changes the cell key
whenever the policy actually consumes the field, and leaves it
unchanged when :meth:`PolicyParams.normalized` drops the knob, or
when the policy does not read budgets and the field is the slack — the
two directions of soundness (no stale-result collisions) and stability
(no needless cache misses).
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Policy
from repro.core.targets import RobustnessTargets
from repro.io.artifacts import STAGE_KEY_MANIFEST, technology_fingerprint
from repro.runner.matrix import JobSpec, design_ref_fingerprint
from repro.runner.runner import _cell_key
from repro.tech import default_technology

_TECH = default_technology()
_TECH_FP = technology_fingerprint(_TECH)

#: Fields PolicyParams.normalized() keeps, per policy.  design/policy
#: are live for every policy; slack (it selects the budget targets)
#: only for a policy that reads budgets — see :func:`_live`.
_LIVE_KNOBS = {
    Policy.RANDOM: {"random_fraction", "random_seed"},
    Policy.SMART: {"lambda_track"},
    Policy.SMART_SHIELD: {"lambda_track"},
}


def _live(job: JobSpec) -> set[str]:
    """The hashed fields ``job``'s flow actually reads."""
    slack = {"slack"} if job.policy.reads_budgets else set()
    return {"design", "policy"} | slack | _LIVE_KNOBS.get(job.policy, set())


def _targets(job: JobSpec) -> RobustnessTargets:
    """The budgets ``_execute_job`` would derive for this cell."""
    if job.slack is None:
        return RobustnessTargets.for_period(1000.0, _TECH.max_slew)
    return RobustnessTargets.from_reference(
        worst_delta=4.0, skew_3sigma=6.0, max_slew=_TECH.max_slew,
        slack=job.slack)


def _key(job: JobSpec) -> str:
    return _cell_key(job, design_ref_fingerprint(job.design), _TECH_FP,
                     _targets(job))


def _perturb(job: JobSpec, field: str) -> JobSpec:
    """A copy of ``job`` with one hashed field changed to a fresh value."""
    if field == "design":
        return replace(job, design="ckt128" if job.design == "ckt64"
                       else "ckt64")
    if field == "policy":
        return replace(job, policy=Policy.ALL_NDR
                       if job.policy != Policy.ALL_NDR else Policy.NO_NDR)
    if field == "slack":
        return replace(job, slack=0.33 if job.slack != 0.33 else 0.44)
    if field == "random_fraction":
        return replace(job, random_fraction=job.random_fraction / 2 + 0.1)
    if field == "random_seed":
        return replace(job, random_seed=job.random_seed + 1)
    if field == "lambda_track":
        return replace(job, lambda_track=job.lambda_track / 2 + 0.01)
    raise AssertionError(f"unknown hashed field {field!r}")


_jobs = st.builds(
    JobSpec,
    design=st.sampled_from(("ckt64", "ckt128")),
    policy=st.sampled_from(list(Policy)),
    slack=st.one_of(st.none(), st.floats(0.05, 0.5, allow_nan=False)),
    random_fraction=st.floats(0.05, 0.95, allow_nan=False),
    random_seed=st.integers(0, 7),
    lambda_track=st.floats(0.01, 0.2, allow_nan=False),
)


def _hashed_fields() -> tuple[str, ...]:
    (entry,) = [e for e in STAGE_KEY_MANIFEST if e.kind == "flow-cell"]
    return entry.hashed_fields


def test_manifest_covers_every_jobspec_field():
    # Every JobSpec field is declared hashed: the key has no blind
    # spots.
    from dataclasses import fields
    assert set(_hashed_fields()) == {f.name for f in fields(JobSpec)}


@settings(max_examples=40, deadline=None)
@given(job=_jobs)
def test_live_field_perturbation_changes_the_key(job: JobSpec):
    base = _key(job)
    live = _live(job)
    for field in _hashed_fields():
        if field not in live:
            continue
        assert _key(_perturb(job, field)) != base, \
            f"perturbing live field {field!r} did not change the key"


@settings(max_examples=40, deadline=None)
@given(job=_jobs)
def test_dead_knob_perturbation_keeps_the_key(job: JobSpec):
    # normalized() drops knobs the policy never reads, and a policy
    # that reads no budgets is the same cell at every slack; equivalent
    # jobs must map to the same cache entry.
    base = _key(job)
    live = _live(job)
    for field in _hashed_fields():
        if field in live:
            continue
        assert _key(_perturb(job, field)) == base, \
            f"dead knob {field!r} changed the key (needless cache miss)"


@settings(max_examples=25, deadline=None)
@given(job=_jobs, other=_jobs)
def test_distinct_normalized_jobs_never_collide(job: JobSpec,
                                               other: JobSpec):
    def identity(j: JobSpec) -> tuple:
        slack: object = j.slack
        if not j.policy.reads_budgets:
            slack = "any"  # one cell at every slack
        elif j.slack is not None:
            slack = round(j.slack, 12)
        return (j.design, slack, j.policy_params())

    if identity(job) != identity(other):
        assert _key(job) != _key(other)
    else:
        assert _key(job) == _key(other)
