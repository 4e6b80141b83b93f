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
:mod:`repro.analysis.report` wires the rules into the
:mod:`repro.verify` check registry under kind ``"static"`` and defines
the inline ``# static: ok[CODE] rationale`` suppression syntax.

Entry points: ``repro lint --static [pkgroot]`` (CLI) and
:func:`analyze_program` / :func:`build_static_context` (library).
"""

from repro.analysis.callgraph import (CallSite, ClassInfo, FunctionInfo,
                                      ModuleInfo, ProgramModel, build_program)
from repro.analysis.dimensions import (AbsVal, DimConfig, DimensionAnalysis,
                                       DimFinding, SignatureGap)
from repro.analysis.effects import (Effect, EffectOrigin, TransitiveOrigin,
                                    direct_effects, param_attr_reads,
                                    reachable_from, transitive_origins)
from repro.analysis.report import (DEFAULT_DETERMINISM_ROOTS,
                                   DEFAULT_DIM_SIGNATURE_ROOTS,
                                   DEFAULT_PROCESS_ROOTS,
                                   DEFAULT_WORKER_GROUPS, ContextStateSpec,
                                   StaticContext, Suppression, WorkerGroup,
                                   analyze_program, build_static_context,
                                   expand_code_patterns,
                                   unsuppressed_rationales)

# Importing the rule modules registers every D/C/I/S/Q/U check; keep
# these after the registry-facing imports (they decorate into it).
from repro.analysis import rules_determinism as _rules_d   # noqa: E402,F401
from repro.analysis import rules_cachekey as _rules_c      # noqa: E402,F401
from repro.analysis import rules_invalidation as _rules_i  # noqa: E402,F401
from repro.analysis import rules_state as _rules_s         # noqa: E402,F401
from repro.analysis import rules_units as _rules_q         # noqa: E402,F401

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
