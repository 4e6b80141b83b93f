"""Declared state invariants of the engine layer.

The incremental engine's correctness rests on manual bookkeeping: a
mutation of compiled arena state must be paired with the matching
invalidation (cache drop, stale mark), and every analysis entry point
must pass a recompile barrier before reading arena state that a
pending mutation may have doomed.  This module *declares* those
pairings so the static analyzer (:mod:`repro.analysis.rules_invalidation`)
can prove them over the AST instead of trusting code review.
:data:`ENGINE_STATE_INVARIANTS` holds one :class:`StateInvariant` per
stateful class, naming the guarded attribute writes, the paired
invalidators, the stale flag and the recompile barrier (codes
I001–I003).

Keep it in sync with the classes it describes: the analyzer's
``static-config`` check errors on entries naming unknown classes, and
I002 errors on declared invalidators or guarded fields that no longer
exist in the code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class StateInvariant:
    """Mutation→invalidation pairing contract of one stateful class."""

    #: Qualified class name ("repro.engine.batched.BatchedNetworkKernel").
    cls: str
    #: Attributes whose (direct or subscripted) writes must be paired
    #: with an invalidation on every path to function exit.
    guarded_fields: tuple[str, ...]
    #: Method names whose call counts as the paired invalidation.
    invalidators: tuple[str, ...] = ()
    #: Attributes whose ``self.attr = None`` assignment counts as the
    #: paired invalidation (inline cache drops).
    cache_attrs: tuple[str, ...] = ()
    #: Boolean attribute marking the compiled state doomed; assigning
    #: it ``True`` also counts as invalidation.
    stale_flag: Optional[str] = None
    #: Method that recompiles when the stale flag is set; public
    #: methods reading guarded state must call it (or test the stale
    #: flag) first — code I003.
    barrier: Optional[str] = None
    #: Methods allowed to write guarded fields without pairing: the
    #: constructor and the (re)compile path, which build the guarded
    #: state in the first place.
    exempt: tuple[str, ...] = ()


ENGINE_STATE_INVARIANTS: tuple[StateInvariant, ...] = (
    StateInvariant(
        cls="repro.engine.batched.BatchedNetworkKernel",
        guarded_fields=("r", "cap_fixed", "area_half", "rest_half",
                        "cc_half", "act_half", "width", "thickness",
                        "jmax"),
        invalidators=("_invalidate",),
        cache_attrs=("_down", "_xtalk"),
        stale_flag="_stale",
        barrier="_ensure",
        exempt=("__init__", "_compile"),
    ),
)
