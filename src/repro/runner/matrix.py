"""Run-matrix cells and the design references they name.

An experiment in this suite is a matrix of (design x policy x slack)
cells, each cell one ``run_flow`` invocation.  :class:`JobSpec` is one
cell, fully serializable (designs are referenced by benchmark name or
JSON path, never by live object), so a job can cross a process
boundary and be content-hashed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

from repro.core.policies import Policy
from repro.core.stages import PolicyParams
from repro.netlist.design import Design

#: A design reference: a built-in benchmark name or a design-JSON path.
DesignRef = str


def resolve_design(ref: DesignRef) -> Design:
    """Materialise a design reference into a placed design."""
    from repro.designs import generate_design, spec_by_name
    from repro.io import load_design

    if Path(ref).suffix == ".json":
        return load_design(ref)
    return generate_design(spec_by_name(ref))


def design_ref_fingerprint(ref: DesignRef) -> str:
    """Content hash of what ``ref`` will build.

    Corpus names hash their spec's *content*
    (:func:`~repro.designs.spec_fingerprint`: every generator knob, the
    resolved seed salt, never the display name — renaming a registered
    design keeps its artifacts warm); JSON paths hash the file bytes,
    so editing the file invalidates dependent artifacts.
    """
    from repro.io.artifacts import fingerprint

    if Path(ref).suffix == ".json":
        digest = hashlib.sha256(Path(ref).read_bytes()).hexdigest()
        return fingerprint({"design_json": digest})
    from repro.designs import spec_by_name, spec_fingerprint
    return spec_fingerprint(spec_by_name(ref))


@dataclass(frozen=True)
class JobSpec:
    """One cell of the run matrix: one policy flow on one design.

    ``slack=None`` means period-derived budgets
    (:meth:`RobustnessTargets.for_period`); a float pegs the budgets to
    the design's all-NDR reference — the runner then schedules that
    reference as a shared upstream job.
    """

    design: DesignRef
    policy: Policy
    slack: Optional[float] = 0.15
    random_fraction: float = 0.3
    random_seed: int = 0
    lambda_track: float = 0.05

    @property
    def label(self) -> str:
        slack = "period" if self.slack is None else f"{self.slack:.2f}"
        return f"{self.design}/{self.policy.value}@{slack}"

    def policy_params(self) -> PolicyParams:
        """The (normalised) policy-stage parameters of this cell."""
        return PolicyParams(policy=self.policy,
                            random_fraction=self.random_fraction,
                            random_seed=self.random_seed,
                            lambda_track=self.lambda_track).normalized()

    def reference_job(self) -> Optional["JobSpec"]:
        """The upstream all-NDR reference this cell's budgets need."""
        if self.slack is None:
            return None
        return replace(self, policy=Policy.ALL_NDR, slack=None)


def expand_design_refs(designs: Sequence[DesignRef]) -> tuple[DesignRef, ...]:
    """Expand corpus selectors among ``designs`` into concrete refs.

    Entries with selector syntax — a ``family:`` prefix or glob
    characters — expand through the corpus registry
    (:func:`repro.designs.resolve_selectors`); everything else (exact
    names, JSON paths) passes through verbatim, so matrices over
    unregistered ad-hoc refs keep working.  Expansion dedups across the
    whole list (first win).
    """
    out: list[DesignRef] = []
    seen: set[str] = set()
    for ref in designs:
        if ref.startswith("family:") or any(ch in ref for ch in "*?["):
            from repro.designs import resolve_selectors

            expanded = resolve_selectors([ref])
        else:
            expanded = (ref,)
        for name in expanded:
            if name not in seen:
                seen.add(name)
                out.append(name)
    return tuple(out)
