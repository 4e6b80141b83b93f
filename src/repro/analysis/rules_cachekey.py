"""C-codes: cache-key soundness of the content-addressed artifact store.

A content-addressed cache is only correct when the key hashes *every*
input the cached computation reads.  The manifest
(:data:`repro.io.artifacts.STAGE_KEY_MANIFEST`) declares, per artifact
kind, which parameter-dataclass fields the key folds in; these checks
diff that declaration against what the stage function's transitive
closure actually reads:

========  ====================================================================
C001      a parameter field the stage closure reads is **not** in the hashed
          manifest — two jobs differing only in that field would collide on
          one cache entry (stale-result reuse); ERROR
C002      a hashed field nothing in the closure reads — the key is
          over-constrained and equivalent jobs miss the cache; WARN
C003      the stage closure reads an *ambient* input that no key can see —
          ``os.environ`` or a module-level global that some function
          mutates; ERROR
========  ====================================================================

Field reads are traced through parameter passing and through the
parameter dataclass's own methods and properties (``job.label`` counts
as reading ``design``, ``policy`` and ``slack``), using the
:func:`repro.analysis.effects.param_attr_reads` fixpoint.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.analysis.callgraph import ProgramModel
from repro.analysis.effects import (Effect, param_attr_reads,
                                    transitive_origins)
from repro.analysis.report import StaticContext
from repro.verify.diagnostics import Diagnostic, Severity


def stage_field_reads(program: ProgramModel, stage: str, params_param: str,
                      params_type: str) -> Optional[set[str]]:
    """Dataclass fields of ``params_type`` the stage closure reads.

    Direct attribute reads come from the parameter-read fixpoint;
    reads named after a method or property of the params class expand
    to that method's own ``self`` reads (transitively — the fixpoint
    already propagated ``self`` through method-to-method calls).
    Returns None when the stage or class is unknown to the program.
    """
    fn = program.functions.get(stage)
    cls = program.classes.get(params_type)
    if fn is None or cls is None or params_param not in fn.params:
        return None
    reads = param_attr_reads(program)
    raw = set(reads[stage].get(params_param, ()))
    # Method calls on the parameter recorded by the call collector:
    # p.method() binds p to the method's self.
    for site in fn.calls:
        if site.receiver_param == params_param \
                and site.receiver_method in cls.methods:
            raw.add(site.receiver_method)

    fields = set(cls.fields)
    expanded: set[str] = set()
    frontier = list(raw)
    seen: set[str] = set()
    while frontier:
        name = frontier.pop()
        if name in seen:
            continue
        seen.add(name)
        if name in fields:
            expanded.add(name)
        elif name in cls.methods:
            method_reads = reads.get(cls.methods[name], {}).get("self", set())
            frontier.extend(method_reads)
    return expanded


def check_unhashed_reads(ctx: StaticContext) -> Iterator[Diagnostic]:
    """Stage reads a parameter field the content key does not hash."""
    program = ctx.program
    for entry in ctx.manifest:
        read = stage_field_reads(program, entry.stage, entry.params_param,
                                 entry.params_type)
        if read is None:
            continue  # static-config reports unresolvable manifest entries
        fn = program.functions[entry.stage]
        for name in sorted(read - set(entry.hashed_fields)):
            if ctx.suppressed("C001", fn.module, fn.lineno):
                continue
            yield Diagnostic(
                rule="C001", severity=Severity.ERROR,
                message=f"stage '{entry.stage}' reads "
                        f"{entry.params_type.rsplit('.', 1)[1]}.{name} but "
                        f"the '{entry.kind}' content key does not hash it — "
                        f"jobs differing only in '{name}' share one cache "
                        f"entry",
                obj=f"{fn.module}:{fn.lineno}",
                hint="add the field to the key parts (and to "
                     "STAGE_KEY_MANIFEST) or stop reading it")


def check_dead_hash_fields(ctx: StaticContext) -> Iterator[Diagnostic]:
    """Content key hashes a parameter field the stage never reads."""
    program = ctx.program
    for entry in ctx.manifest:
        read = stage_field_reads(program, entry.stage, entry.params_param,
                                 entry.params_type)
        if read is None:
            continue
        fn = program.functions[entry.stage]
        for name in sorted(set(entry.hashed_fields) - read):
            if ctx.suppressed("C002", fn.module, fn.lineno):
                continue
            yield Diagnostic(
                rule="C002", severity=Severity.WARN,
                message=f"'{entry.kind}' content key hashes "
                        f"{entry.params_type.rsplit('.', 1)[1]}.{name} but "
                        f"stage '{entry.stage}' never reads it — "
                        f"equivalent jobs needlessly miss the cache",
                obj=f"{fn.module}:{fn.lineno}",
                hint="normalise the field out of the key (see "
                     "PolicyParams.normalized) or drop it from the "
                     "manifest if a transitive read is simply invisible "
                     "to the analyzer")


def check_ambient_inputs(ctx: StaticContext) -> Iterator[Diagnostic]:
    """Stage closure reads ambient state no content key can hash."""
    seen: set[tuple[str, int, str]] = set()
    program = ctx.program
    for entry in ctx.manifest:
        if entry.stage not in program.functions:
            continue
        origins = transitive_origins(
            program, entry.stage,
            (Effect.ENV_READ, Effect.MUTABLE_GLOBAL_READ))
        for item in origins:
            origin = item.origin
            key = (origin.module, origin.lineno, origin.detail)
            if key in seen:
                continue
            seen.add(key)
            if ctx.suppressed("C003", origin.module, origin.lineno):
                continue
            source = (f"environment variable {origin.env_var!r}"
                      if origin.env_var is not None else origin.detail)
            yield Diagnostic(
                rule="C003", severity=Severity.ERROR,
                message=f"'{entry.kind}' stage closure reads {source}, "
                        f"which the content key cannot hash "
                        f"[reached via "
                        f"{' -> '.join(item.path[-3:])}]",
                obj=f"{origin.module}:{origin.lineno}",
                hint="pass the value in through the hashed stage "
                     "parameters, or suppress with a rationale if it "
                     "provably never alters artifact content")
