"""Teacher-set generation for the ML-guided policy.

:func:`teacher_dataset` is the training-set generator for the ML-guided
policy: it runs the greedy optimizer (the "teacher") over a list of
designs and returns every clock wire's default-state features with the
rule the teacher finally assigned.  Generation is a small run matrix —
one all-NDR reference plus one teacher run per design — so it goes
through the same artifact store as the flow runner (shared builds) and
fans out over worker processes with ``jobs > 1``.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np


def _teacher_job(design, tech, targets, store_root: Optional[str]):
    """One design's (X, y) teacher samples (runs in a worker process)."""
    # Imports are local: repro.ml must stay importable without pulling
    # the whole flow stack (repro.core imports repro.ml.forest).
    from repro.core.evaluation import targets_from_reference
    from repro.core.flow import run_flow
    from repro.core.mlguide import collect_teacher_samples
    from repro.core.policies import Policy
    from repro.io.artifacts import ArtifactStore

    store = ArtifactStore(store_root) if store_root else None
    if targets is None:
        # Peg the teacher's budgets to the design's own all-NDR
        # reference — the same protocol evaluation uses — so the
        # learned labels transfer.
        reference = run_flow(design, tech, policy=Policy.ALL_NDR,
                             store=store)
        targets = targets_from_reference(reference.analyses, tech)
    return collect_teacher_samples(design, tech, targets, store=store)


def _materialize_designs(designs: Sequence) -> list:
    """Live design objects pass through; strings resolve as corpus refs.

    A string entry may be an exact corpus name, a glob, a
    ``family:NAME`` selector, or a design JSON path — the same grammar
    :class:`~repro.runner.RunMatrix` accepts.
    """
    from repro.runner import expand_design_refs, resolve_design

    out = []
    for item in designs:
        if isinstance(item, str):
            out.extend(resolve_design(ref)
                       for ref in expand_design_refs((item,)))
        else:
            out.append(item)
    return out


def teacher_dataset(designs: Sequence, tech=None, targets=None,
                    jobs: int = 1,
                    store=None) -> tuple[np.ndarray, np.ndarray]:
    """Stacked (X, y) of the greedy teacher's decisions over ``designs``.

    Parameters
    ----------
    designs:
        Placed :class:`~repro.netlist.design.Design` objects, corpus
        refs (names, globs, ``family:NAME`` selectors, JSON paths), or
        a mix; refs materialise through the corpus registry.
    targets:
        Fixed budgets for every design; ``None`` pegs each design to
        its own all-NDR reference.
    jobs:
        Worker processes; each design's reference + teacher run is one
        job (designs are independent, so this parallelises cleanly).
    store:
        Optional :class:`~repro.io.artifacts.ArtifactStore` (or path)
        shared with the flow runner: the reference build is then reused
        rather than re-synthesised per invocation.
    """
    if not designs:
        raise ValueError("need at least one training design")
    designs = _materialize_designs(designs)
    if tech is None:
        from repro.tech import default_technology
        tech = default_technology()
    store_root = None
    if store is not None:
        store_root = str(getattr(store, "root", store))
    if jobs > 1 and len(designs) > 1:
        from concurrent.futures import ProcessPoolExecutor

        from repro import obs

        # A forked worker inherits the parent's installed tracer; drop
        # it so teacher runs never record into the fork's copy.
        with ProcessPoolExecutor(max_workers=min(jobs, len(designs)),
                                 initializer=obs.disable) as pool:
            pairs = list(pool.map(_teacher_job, designs,
                                  [tech] * len(designs),
                                  [targets] * len(designs),
                                  [store_root] * len(designs)))
    else:
        pairs = [_teacher_job(d, tech, targets, store_root)
                 for d in designs]
    xs, ys = zip(*pairs)
    return np.vstack(xs), np.concatenate(ys)
