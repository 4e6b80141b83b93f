"""Whole-program determinism & cache-soundness analyzer.

An AST-based static pass over the ``repro`` package (or any package
root) that proves, at CI time, the two invariants the runtime cannot
cheaply check:

* every function reachable from a pipeline stage or a
  :class:`~repro.runner.FlowRunner` worker entrypoint is deterministic
  and free of cross-process shared-state mutation (**D-codes**,
  :mod:`repro.analysis.rules_determinism`);
* every input a content-addressed stage reads is folded into its
  sha256 artifact key (**C-codes**,
  :mod:`repro.analysis.rules_cachekey`, driven by
  :data:`repro.io.artifacts.STAGE_KEY_MANIFEST`);
* every guarded engine-state mutation is paired with its declared
  invalidation and read behind the recompile barrier (**I-codes**,
  :mod:`repro.analysis.rules_invalidation`, driven by
  :data:`repro.engine.invariants.ENGINE_STATE_INVARIANTS`);
* process-pool workers neither read un-reset globals nor leave the
  forwarded-environment seam, and their payloads pickle soundly
  (**S-codes**, :mod:`repro.analysis.rules_state`);
* every physical quantity flows under its declared dimension — an
  interprocedural abstract interpretation over the
  :class:`repro.units.Dim` lattice, seeded from ``Annotated`` signature
  annotations and the :data:`repro.units.DIMENSIONS` manifest
  (**Q-codes** plus the lexical **U-codes**,
  :mod:`repro.analysis.rules_units`, inference in
  :mod:`repro.analysis.dimensions`).

The machinery: :mod:`repro.analysis.callgraph` builds a module-level
call graph with import/alias/re-export/self resolution;
:mod:`repro.analysis.effects` infers per-function effects and
propagates them to a fixpoint over that graph;
:mod:`repro.analysis.report` defines the :class:`StaticContext` every
static check reads and the inline ``# static: ok[CODE] rationale``
suppression syntax.  :data:`STATIC_CHECKS` is the family's one table;
:func:`analyze_program` runs it through the verifier's shared runner.

Entry points: ``repro lint --static [pkgroot]`` (CLI) and
:func:`analyze_program` / :func:`build_static_context` (library).
"""

import fnmatch
from typing import Optional, Sequence

from repro.analysis.callgraph import (CallSite, ClassInfo, FunctionInfo,
                                      ModuleInfo, ProgramModel, build_program)
from repro.analysis.dimensions import (AbsVal, DimConfig, DimensionAnalysis,
                                       DimFinding, SignatureGap)
from repro.analysis.effects import (Effect, EffectOrigin, TransitiveOrigin,
                                    direct_effects, param_attr_reads,
                                    reachable_from, transitive_origins)
from repro.analysis import (rules_cachekey, rules_determinism,
                            rules_invalidation, rules_state, rules_units)
from repro.analysis.report import (DEFAULT_DETERMINISM_ROOTS,
                                   DEFAULT_DIM_SIGNATURE_ROOTS,
                                   DEFAULT_PROCESS_ROOTS,
                                   DEFAULT_WORKER_GROUPS, ContextStateSpec,
                                   StaticContext, Suppression, WorkerGroup,
                                   build_static_context, check_static_config,
                                   unsuppressed_rationales)
from repro.verify.diagnostics import VerifyReport
from repro.verify.registry import Check, run_family

__all__ = [
    "AbsVal",
    "CallSite",
    "ClassInfo",
    "ContextStateSpec",
    "DEFAULT_DETERMINISM_ROOTS",
    "DEFAULT_DIM_SIGNATURE_ROOTS",
    "DEFAULT_PROCESS_ROOTS",
    "DEFAULT_WORKER_GROUPS",
    "DimConfig",
    "DimFinding",
    "DimensionAnalysis",
    "Effect",
    "EffectOrigin",
    "FunctionInfo",
    "ModuleInfo",
    "ProgramModel",
    "STATIC_CHECKS",
    "SignatureGap",
    "StaticContext",
    "Suppression",
    "TransitiveOrigin",
    "WorkerGroup",
    "analyze_program",
    "build_program",
    "build_static_context",
    "direct_effects",
    "expand_code_patterns",
    "param_attr_reads",
    "reachable_from",
    "transitive_origins",
    "unsuppressed_rationales",
]

#: The static family: every D/C/I/S/Q/U code plus the config check.
STATIC_CHECKS: tuple[Check[StaticContext], ...] = (
    Check("D001", "static", rules_determinism.check_unseeded_rng),
    Check("D002", "static", rules_determinism.check_wall_clock),
    Check("D003", "static", rules_determinism.check_env_reads),
    Check("D004", "static", rules_determinism.check_shared_state),
    Check("D005", "static", rules_determinism.check_set_order),
    Check("D006", "static", rules_determinism.check_object_identity),
    Check("C001", "static", rules_cachekey.check_unhashed_reads),
    Check("C002", "static", rules_cachekey.check_dead_hash_fields),
    Check("C003", "static", rules_cachekey.check_ambient_inputs),
    Check("I001", "static", rules_invalidation.check_unpaired_writes),
    Check("I002", "static", rules_invalidation.check_dead_guards),
    Check("I003", "static", rules_invalidation.check_stale_reads),
    Check("S001", "static", rules_state.check_worker_globals),
    Check("S002", "static", rules_state.check_payload_types),
    Check("S003", "static", rules_state.check_env_seam),
    Check("S004", "static", rules_state.check_context_state),
    Check("Q001", "static", rules_units.check_dimension_mismatch),
    Check("Q002", "static", rules_units.check_unnamed_conversion),
    Check("Q003", "static", rules_units.check_call_dimension),
    Check("Q004", "static", rules_units.check_signature_coverage),
    Check("Q005", "static", rules_units.check_manifest_field_use),
    Check("U001", "static", rules_units.check_float_equality),
    Check("U002", "static", rules_units.check_conversion_literal),
    Check("static-config", "static", check_static_config),
)


def expand_code_patterns(codes: Sequence[str]) -> list[str]:
    """Expand ``fnmatch`` patterns (``Q*``, ``U00?``) to static rule ids.

    Raises :class:`KeyError` for a pattern that matches no static
    check — a silent no-match would make ``--codes Q*`` look clean
    when the pattern simply names nothing.
    """
    available = [check.rule for check in STATIC_CHECKS]
    selected: list[str] = []
    for pattern in codes:
        matched = fnmatch.filter(available, pattern)
        if not matched:
            raise KeyError(
                f"code pattern {pattern!r} matches no registered static "
                f"check (known: {', '.join(sorted(available))})")
        selected.extend(rule for rule in matched if rule not in selected)
    return selected


def analyze_program(ctx: StaticContext,
                    codes: Optional[Sequence[str]] = None) -> VerifyReport:
    """Run the static checks over ``ctx``.

    ``codes`` restricts the run to rule ids matching the given
    ``fnmatch`` patterns (e.g. ``["Q*"]`` for the dimension family).
    """
    rules = expand_code_patterns(codes) if codes else None
    return run_family(ctx, STATIC_CHECKS, rules)
