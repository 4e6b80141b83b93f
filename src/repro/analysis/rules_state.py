"""S-codes: fork/worker state safety of the process-pool seams.

A ``ProcessPoolExecutor`` worker inherits the parent's module state at
fork time and then drifts: globals mutated in the parent are invisible
to it, state it mutates leaks across the cells of its serial twin, and
anything its payload carries must survive a pickle round-trip.  Each
S-code checks one way that seam breaks, per declared *worker group*
(an entry function plus its pool initializer, ``ctx.worker_groups``):

========  ====================================================================
S001      module-level mutable state read inside a worker entry's
          closure that the group's initializer never resets
S002      a payload dataclass field (``JobSpec``) whose declared type
          cannot safely cross the process boundary (``Callable``,
          ``Any``, or a program class that is neither a dataclass nor
          an ``Enum``)
S003      ``os.environ`` access outside the forwarded-variable seam:
          any write in worker code, or a read/initializer-write of a
          variable not on the forwarded whitelist
S004      context-local state (the obs tracer) accessed from a worker
          entry whose group never installs or resets it
========  ====================================================================

A worker that starts a pool of its own hands that pool's entry and
initializer to new processes; those run under their own group's
checks, so a worker's closure stops at a function it passes to a pool
as another group's entry or initializer.

Suppress a deliberate occurrence with ``# static: ok[CODE] rationale``
on the reported line (S002/S004 anchor at the payload class / worker
entry definition).  All S-codes are ERROR.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.callgraph import (ClassInfo, FunctionInfo, ModuleInfo,
                                      ProgramModel)
from repro.analysis.effects import (Effect, TransitiveOrigin, _locals_of,
                                    direct_effects, reachable_from,
                                    transitive_origins)
from repro.analysis.report import StaticContext, WorkerGroup
from repro.verify.diagnostics import Diagnostic, Severity


def _program_and_groups(
        ctx: StaticContext
) -> Optional[tuple[ProgramModel, tuple[WorkerGroup, ...]]]:
    if not ctx.worker_groups:
        return None
    return ctx.program, tuple(ctx.worker_groups)


def _render_path(path: tuple[str, ...]) -> str:
    if len(path) <= 4:
        return " -> ".join(path)
    return " -> ".join((*path[:2], "...", *path[-2:]))


def _global_mutations_of(program: ProgramModel,
                         fn: FunctionInfo) -> set[tuple[str, str]]:
    """(module, name) globals this one function mutates.

    Per-function twin of the whole-program sweep in
    :func:`repro.analysis.effects._mutated_globals_of`.
    """
    module = program.modules[fn.module]
    out: set[tuple[str, str]] = set()
    for sub in ast.walk(fn.node):
        if isinstance(sub, ast.Global):
            out.update((fn.module, n) for n in sub.names)
        elif isinstance(sub, (ast.Assign, ast.AugAssign, ast.AnnAssign,
                              ast.Delete)):
            targets = (sub.targets
                       if isinstance(sub, (ast.Assign, ast.Delete))
                       else [sub.target])
            for target in targets:
                while isinstance(target, (ast.Subscript, ast.Attribute)):
                    target = target.value
                if isinstance(target, ast.Name) \
                        and target.id in module.global_names \
                        and target.id not in _locals_of(fn):
                    out.add((fn.module, target.id))
    return out


def _closure(program: ProgramModel,
             roots: tuple[str, ...]) -> dict[str, tuple[str, ...]]:
    """Union of ``reachable_from`` over ``roots`` (first witness wins)."""
    merged: dict[str, tuple[str, ...]] = {}
    for root in roots:
        for qualname, path in reachable_from(program, root).items():
            merged.setdefault(qualname, path)
    return merged


def _worker_reach(program: ProgramModel, entry: str,
                  groups: tuple[WorkerGroup, ...]
                  ) -> dict[str, tuple[str, ...]]:
    """Functions ``entry``'s own worker runs, one witness path each.

    :func:`reachable_from`, except that a function handed to a pool (a
    reference edge) as another group's entry or initializer is not
    followed: it runs in that pool's processes, not in this worker.
    """
    seams = {q for g in groups for q in (g.entry, g.initializer) if q}
    seams.discard(entry)
    paths: dict[str, tuple[str, ...]] = {}
    if entry in program.functions:
        paths[entry] = (entry,)
    frontier = list(paths)
    while frontier:
        current = frontier.pop()
        for site in program.callees(current):
            target = site.target
            assert target is not None
            if target in paths or (site.is_reference and target in seams):
                continue
            paths[target] = paths[current] + (target,)
            frontier.append(target)
    return paths


def _runtime_mutable(ctx: StaticContext, program: ProgramModel,
                     groups: tuple[WorkerGroup, ...]) -> set[tuple[str, str]]:
    """Globals some function reachable from any analyzed root mutates.

    A global only a function no root reaches mutates (a one-off setup
    helper, say) is left out, which keeps S001 about state that
    actually changes while workers live.
    """
    roots = (*ctx.determinism_roots,
             *ctx.process_roots,
             *(g.entry for g in groups),
             *(g.initializer for g in groups if g.initializer))
    mutable: set[tuple[str, str]] = set()
    for qualname in _closure(program, tuple(dict.fromkeys(roots))):
        fn = program.functions.get(qualname)
        if fn is not None:
            mutable |= _global_mutations_of(program, fn)
    return mutable


def check_worker_globals(ctx: StaticContext) -> Iterator[Diagnostic]:
    """Worker-read mutable globals the pool initializer never resets."""
    bundle = _program_and_groups(ctx)
    if bundle is None:
        return
    program, groups = bundle
    mutable = _runtime_mutable(ctx, program, groups)
    seen: set[tuple[str, int, str]] = set()
    for group in groups:
        reset: set[tuple[str, str]] = set()
        if group.initializer:
            for qualname in _closure(program, (group.initializer,)):
                fn = program.functions.get(qualname)
                if fn is not None:
                    reset |= _global_mutations_of(program, fn)
        for qualname, path in sorted(
                _worker_reach(program, group.entry, groups).items()):
            fn = program.functions.get(qualname)
            if fn is None:
                continue
            for node in ast.walk(fn.node):
                if not (isinstance(node, ast.Name)
                        and isinstance(node.ctx, ast.Load)):
                    continue
                pair = (fn.module, node.id)
                if pair not in mutable or pair in reset \
                        or node.id in _locals_of(fn):
                    continue
                key = (fn.module, node.lineno, node.id)
                if key in seen:
                    continue
                seen.add(key)
                if ctx.suppressed("S001", fn.module, node.lineno):
                    continue
                initializer = group.initializer or "<no initializer>"
                yield Diagnostic(
                    rule="S001", severity=Severity.ERROR,
                    message=f"worker entry '{group.entry}' reads "
                            f"module-level '{node.id}', mutated at "
                            f"runtime but never reset by {initializer} "
                            f"[reached via {_render_path(path)}]",
                    obj=f"{fn.module}:{node.lineno}",
                    hint="a forked worker inherits whatever the parent "
                         "left in this global; reset it in the pool "
                         "initializer or pass the value through the "
                         "job payload")


# -- S002: payload picklability ------------------------------------------------

#: Canonical heads that never cross a process boundary soundly.
_BAD_HEADS = frozenset({
    "typing.Callable", "collections.abc.Callable", "typing.Any",
    "builtins.object", "builtins.type",
})

_ENUM_BASES = frozenset({"Enum", "IntEnum", "StrEnum", "Flag", "IntFlag"})

_BUILTIN_TYPE_NAMES = frozenset({
    "str", "int", "float", "bool", "bytes", "complex", "object", "type",
    "tuple", "list", "dict", "set", "frozenset", "None",
})


def _canonical_name(program: ProgramModel, module: ModuleInfo,
                    dotted: str, _depth: int = 0) -> str:
    """Resolve an annotation name to its defining dotted path."""
    if _depth > 8:
        return dotted
    if dotted in module.aliases:  # DesignRef = str
        return _canonical_name(program, module, module.aliases[dotted],
                               _depth + 1)
    head, _, rest = dotted.partition(".")
    if head in module.imports:
        expanded = module.imports[head] + (f".{rest}" if rest else "")
        resolved = program.resolve_export(expanded)
        return resolved if resolved is not None else expanded
    local = f"{module.name}.{dotted}"
    if local in program.classes or local in program.functions:
        return local
    if not rest and head in _BUILTIN_TYPE_NAMES:
        return f"builtins.{head}"
    return dotted


def _is_enum_class(program: ProgramModel, cls: ClassInfo) -> bool:
    module = program.modules.get(cls.module)
    for base in cls.bases:
        canonical = base if module is None \
            else _canonical_name(program, module, base)
        if canonical.startswith("enum.") \
                or canonical.rsplit(".", 1)[-1] in _ENUM_BASES:
            return True
    return False


def _type_expr_problems(program: ProgramModel, module: ModuleInfo,
                        node: ast.expr) -> Iterator[str]:
    """Reasons a type expression cannot cross the process boundary."""
    if isinstance(node, ast.Constant):
        if isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return
            yield from _type_expr_problems(program, module, parsed)
        return
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        yield from _type_expr_problems(program, module, node.left)
        yield from _type_expr_problems(program, module, node.right)
        return
    if isinstance(node, ast.Subscript):
        yield from _type_expr_problems(program, module, node.value)
        elements = (node.slice.elts if isinstance(node.slice, ast.Tuple)
                    else [node.slice])
        for element in elements:
            yield from _type_expr_problems(program, module, element)
        return
    if isinstance(node, (ast.Name, ast.Attribute)):
        parts: list[str] = []
        probe: ast.expr = node
        while isinstance(probe, ast.Attribute):
            parts.append(probe.attr)
            probe = probe.value
        if not isinstance(probe, ast.Name):
            return
        parts.append(probe.id)
        dotted = ".".join(reversed(parts))
        canonical = _canonical_name(program, module, dotted)
        if canonical in _BAD_HEADS:
            yield (f"'{dotted}' ({canonical}) is callable/opaque and "
                   f"does not survive a pickle round-trip")
            return
        cls = program.classes.get(canonical)
        if cls is not None and not cls.is_dataclass \
                and not _is_enum_class(program, cls):
            yield (f"'{dotted}' is a program class that is neither a "
                   f"dataclass nor an Enum — its identity and mutable "
                   f"state do not survive the process boundary")


def check_payload_types(ctx: StaticContext) -> Iterator[Diagnostic]:
    """Payload dataclass fields that cannot cross the process boundary."""
    program = ctx.program
    for name in ctx.payload_types:
        cls = program.classes.get(name)
        if cls is None:  # unknown payloads -> static-config
            continue
        module = program.modules.get(cls.module)
        if module is None:
            continue
        for field_name in cls.fields:
            annotation = cls.field_annotations.get(field_name)
            if annotation is None:
                continue
            try:
                parsed = ast.parse(annotation, mode="eval").body
            except SyntaxError:
                continue
            for reason in _type_expr_problems(program, module, parsed):
                if ctx.suppressed("S002", cls.module, cls.lineno):
                    continue
                yield Diagnostic(
                    rule="S002", severity=Severity.ERROR,
                    message=f"payload {cls.name}.{field_name}: {reason}",
                    obj=f"{cls.module}:{cls.lineno}",
                    hint="job payloads are pickled into every worker; "
                         "carry plain data (str/int/dataclass/Enum) and "
                         "rebuild live objects on the worker side")


def check_env_seam(ctx: StaticContext) -> Iterator[Diagnostic]:
    """Environment access outside the forwarded-variable seam."""
    bundle = _program_and_groups(ctx)
    if bundle is None:
        return
    program, groups = bundle
    whitelist = set(ctx.env_whitelist)
    seen: set[tuple[str, int, str]] = set()

    def emit(item: TransitiveOrigin, problem: str) -> Iterator[Diagnostic]:
        origin = item.origin
        key = (origin.module, origin.lineno, origin.detail)
        if key in seen:
            return
        seen.add(key)
        if ctx.suppressed("S003", origin.module, origin.lineno):
            return
        yield Diagnostic(
            rule="S003", severity=Severity.ERROR,
            message=f"{origin.detail}: {problem} "
                    f"[reached via {_render_path(item.path)}]",
            obj=f"{origin.module}:{origin.lineno}",
            hint="workers see only the forwarded variables, captured "
                 "once by the pool initializer; read configuration "
                 "before the pool starts and pass it as an argument")

    for group in groups:
        reach = _worker_reach(program, group.entry, groups)
        entry_origins = sorted(
            (TransitiveOrigin(origin=origin, path=path)
             for qualname, path in reach.items()
             for origin in direct_effects(program, qualname)
             if origin.effect in (Effect.ENV_READ, Effect.ENV_WRITE)),
            key=lambda t: (t.origin.module, t.origin.lineno,
                           t.origin.effect.value))
        for item in entry_origins:
            origin = item.origin
            if origin.effect is Effect.ENV_WRITE:
                yield from emit(
                    item, "worker code must not write os.environ — only "
                          "the pool initializer replays forwarded "
                          "variables")
            elif origin.env_var is None or origin.env_var not in whitelist:
                yield from emit(
                    item, f"reads env var "
                          f"'{origin.env_var or '<dynamic>'}' outside "
                          f"the forwarded whitelist")
        if not group.initializer:
            continue
        for item in transitive_origins(program, group.initializer,
                                       (Effect.ENV_WRITE,)):
            origin = item.origin
            if origin.env_var is None or origin.env_var not in whitelist:
                yield from emit(
                    item, f"initializer writes env var "
                          f"'{origin.env_var or '<dynamic>'}' outside "
                          f"the forwarded whitelist")


def check_context_state(ctx: StaticContext) -> Iterator[Diagnostic]:
    """Context-local state accessed from a root that never installs it."""
    bundle = _program_and_groups(ctx)
    if bundle is None:
        return
    program, groups = bundle
    for group in groups:
        entry_fn = program.functions.get(group.entry)
        if entry_fn is None:
            continue
        entry_reach = _worker_reach(program, group.entry, groups)
        init_roots = (group.initializer,) if group.initializer else ()
        init_reach = _closure(program, init_roots)
        for spec in ctx.context_specs:
            touched = [(a, entry_reach[a]) for a in spec.accessors
                       if a in entry_reach]
            if not touched:
                continue
            if any(i in entry_reach or i in init_reach
                   for i in spec.installers):
                continue
            if ctx.suppressed("S004", entry_fn.module, entry_fn.lineno):
                continue
            accessor, path = touched[0]
            yield Diagnostic(
                rule="S004", severity=Severity.ERROR,
                message=f"worker entry '{group.entry}' reaches "
                        f"{spec.name} accessor {accessor} "
                        f"[via {_render_path(path)}] but neither it nor "
                        f"its initializer installs that state",
                obj=f"{entry_fn.module}:{entry_fn.lineno}",
                hint="a forked worker inherits the parent's "
                     f"{spec.name} object — install or reset it in the "
                     "pool initializer (e.g. obs.disable()/capture()) "
                     "so spans don't write into the parent's buffers")
