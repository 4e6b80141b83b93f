"""I-codes: mutation→invalidation pairing of compiled engine state.

The incremental engine (PR 6) keeps compiled CSR arenas and derived
caches coherent by hand: every write of a guarded arena field must be
paired with the matching invalidation, and every public analysis entry
must pass the recompile barrier before reading state a pending
mutation may have doomed.  :mod:`repro.engine.invariants` *declares*
those pairings; this module proves them over the AST:

========  ====================================================================
I001      a guarded-field write (direct, or via a private writer method)
          not post-dominated by the paired invalidation — some path can
          reach function exit with stale derived caches
I002      manifest drift: a declared invalidator/barrier that is not a
          method of the class, or a declared guarded field no method
          ever writes (dead guard)
I003      a public method whose transitive self-call closure reads
          guarded state without mentioning the recompile barrier or the
          stale flag — it can observe doomed compiled state
========  ====================================================================

"Post-dominated" is structural (:func:`repro.analysis.effects.
statement_postdominated`): every control-flow path from just after the
write must hit an invalidation statement before leaving the method.
Invalidation statements are ``self.<invalidator>()`` calls,
``self.<cache_attr> = None`` drops, and ``self.<stale_flag> = True``
marks.  Suppress a deliberate occurrence with
``# static: ok[CODE] rationale`` on the reported line.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Callable, Iterator, Optional

from repro.analysis.callgraph import ClassInfo, FunctionInfo, ProgramModel
from repro.analysis.effects import statement_postdominated
from repro.analysis.report import StaticContext
from repro.verify.diagnostics import Diagnostic, Severity

if TYPE_CHECKING:  # the analyzer stays AST-pure: no engine import at runtime
    from repro.engine.invariants import StateInvariant

SatPredicate = Callable[[ast.stmt], bool]


def _invariant_classes(
        ctx: StaticContext
) -> Iterator[tuple[ProgramModel, StateInvariant, ClassInfo]]:
    """(program, invariant, class) for each declared class that exists."""
    program = ctx.program
    for inv in ctx.invariants:
        cls = program.classes.get(inv.cls)
        if cls is not None:  # unknown classes -> static-config
            yield program, inv, cls


def _self_attr(node: ast.expr) -> Optional[str]:
    """``self.x`` -> ``"x"`` (unwrapping subscripts), else None."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


def _guarded_writes(fn: FunctionInfo,
                    fields: frozenset[str]) -> list[tuple[ast.stmt, str]]:
    """(statement, field) for each write of a guarded ``self`` field."""
    writes: list[tuple[ast.stmt, str]] = []
    for node in ast.walk(fn.node):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            attr = _self_attr(target)
            if attr is not None and attr in fields:
                writes.append((node, attr))  # type: ignore[arg-type]
    return writes


def _sat_predicate(inv: StateInvariant) -> SatPredicate:
    """A statement that counts as the invariant's paired invalidation."""
    invalidators = set(inv.invalidators)
    cache_attrs = set(inv.cache_attrs)

    def is_sat(stmt: ast.stmt) -> bool:
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            func = stmt.value.func
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "self"
                    and func.attr in invalidators):
                return True
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                attr = _self_attr(target)
                if attr is None:
                    continue
                value = stmt.value
                if (attr in cache_attrs
                        and isinstance(value, ast.Constant)
                        and value.value is None):
                    return True
                if (inv.stale_flag is not None and attr == inv.stale_flag
                        and isinstance(value, ast.Constant)
                        and value.value is True):
                    return True
        return False

    return is_sat


_BODY_FIELDS = ("body", "orelse", "finalbody")


def _stmt_containing(body: list[ast.stmt],
                     node: ast.AST) -> Optional[ast.stmt]:
    """The innermost statement in ``body`` whose subtree holds ``node``."""
    for stmt in body:
        inner_bodies: list[list[ast.stmt]] = [
            getattr(stmt, name) for name in _BODY_FIELDS
            if getattr(stmt, name, None)]
        for handler in getattr(stmt, "handlers", ()):
            inner_bodies.append(handler.body)
        for inner in inner_bodies:
            found = _stmt_containing(inner, node)
            if found is not None:
                return found
        if any(sub is node for sub in ast.walk(stmt)):
            return stmt
    return None


def _writer_call_sites(program: ProgramModel, cls: ClassInfo,
                       writer: str) -> Iterator[tuple[FunctionInfo, ast.stmt]]:
    """(caller, statement) for every in-class ``self.<writer>(...)`` call."""
    for method_name, qualname in cls.methods.items():
        if method_name == writer:
            continue
        caller = program.functions.get(qualname)
        if caller is None:
            continue
        for node in ast.walk(caller.node):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "self"
                    and node.func.attr == writer):
                stmt = _stmt_containing(caller.node.body, node)
                if stmt is not None:
                    yield caller, stmt


def check_unpaired_writes(ctx: StaticContext) -> Iterator[Diagnostic]:
    """Guarded-field writes not post-dominated by the paired invalidation."""
    for program, inv, cls in _invariant_classes(ctx):
        fields = frozenset(inv.guarded_fields)
        skip = set(inv.exempt) | set(inv.invalidators)
        if inv.barrier is not None:
            skip.add(inv.barrier)
        is_sat = _sat_predicate(inv)
        pairing = (f"self.{inv.invalidators[0]}()" if inv.invalidators
                   else "a cache drop (self.<cache> = None)")
        for method_name in sorted(cls.methods):
            if method_name in skip:
                continue
            fn = program.functions.get(cls.methods[method_name])
            if fn is None:
                continue
            bad = [(stmt, attr)
                   for stmt, attr in _guarded_writes(fn, fields)
                   if not statement_postdominated(fn.node.body, stmt, is_sat)]
            if not bad:
                continue
            if method_name.startswith("_"):
                # Private writer: sound iff every in-class call site is
                # itself post-dominated by the invalidation (or lives in
                # an exempt method such as the compile path).
                sites = list(_writer_call_sites(program, cls, method_name))
                unpaired = [
                    (caller, stmt) for caller, stmt in sites
                    if caller.name not in skip
                    and not statement_postdominated(
                        caller.node.body, stmt, is_sat)]
                if sites and not unpaired:
                    continue
                for caller, stmt in unpaired:
                    if ctx.suppressed("I001", caller.module, stmt.lineno):
                        continue
                    yield Diagnostic(
                        rule="I001", severity=Severity.ERROR,
                        message=f"{cls.name}.{caller.name} calls guarded "
                                f"writer {method_name}() on a path not "
                                f"post-dominated by {pairing}",
                        obj=f"{caller.module}:{stmt.lineno}",
                        hint=f"every call of {cls.name}.{method_name} must "
                             f"be followed by {pairing} on all paths to "
                             f"exit, or the caller must be listed as "
                             f"exempt in the invariant manifest")
                if sites:
                    continue
            for stmt, attr in bad:
                if ctx.suppressed("I001", fn.module, stmt.lineno):
                    continue
                yield Diagnostic(
                    rule="I001", severity=Severity.ERROR,
                    message=f"{cls.name}.{method_name} writes guarded "
                            f"field '{attr}' on a path not post-dominated "
                            f"by {pairing}",
                    obj=f"{fn.module}:{stmt.lineno}",
                    hint="pair every guarded mutation with the declared "
                         "invalidation before returning — a missed pair "
                         "leaves derived caches describing pre-mutation "
                         "state (see repro.engine.invariants)")


def check_dead_guards(ctx: StaticContext) -> Iterator[Diagnostic]:
    """Manifest drift: invalidators/fields the class no longer backs."""
    for program, inv, cls in _invariant_classes(ctx):
        for name in (*inv.invalidators,
                     *((inv.barrier,) if inv.barrier else ())):
            if name not in cls.methods:
                if ctx.suppressed("I002", cls.module, cls.lineno):
                    continue
                yield Diagnostic(
                    rule="I002", severity=Severity.ERROR,
                    message=f"invariant for {cls.name} declares "
                            f"'{name}' but the class defines no such "
                            f"method",
                    obj=f"{cls.module}:{cls.lineno}",
                    hint="update ENGINE_STATE_INVARIANTS after renaming "
                         "invalidator/barrier methods")
        written: set[str] = set()
        for qualname in cls.methods.values():
            fn = program.functions.get(qualname)
            if fn is not None:
                written.update(
                    attr for _, attr in _guarded_writes(
                        fn, frozenset(inv.guarded_fields)))
        for field_name in inv.guarded_fields:
            if field_name not in written:
                if ctx.suppressed("I002", cls.module, cls.lineno):
                    continue
                yield Diagnostic(
                    rule="I002", severity=Severity.ERROR,
                    message=f"invariant for {cls.name} guards field "
                            f"'{field_name}' but no method ever writes "
                            f"it (dead guard)",
                    obj=f"{cls.module}:{cls.lineno}",
                    hint="dead guard entries hide real drift — drop the "
                         "field from the manifest or restore the write")


def _guarded_readers(program: ProgramModel, cls: ClassInfo,
                     guarded: frozenset[str]) -> set[str]:
    """Methods whose transitive self-call closure reads guarded state."""
    reads: set[str] = set()
    self_calls: dict[str, set[str]] = {}
    for method_name, qualname in cls.methods.items():
        fn = program.functions.get(qualname)
        if fn is None:
            continue
        called: set[str] = set()
        for node in ast.walk(fn.node):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"):
                if isinstance(node.ctx, ast.Load) and node.attr in guarded:
                    reads.add(method_name)
                if node.attr in cls.methods:
                    called.add(node.attr)
        self_calls[method_name] = called
    changed = True
    while changed:
        changed = False
        for method_name, called in self_calls.items():
            if method_name not in reads and called & reads:
                reads.add(method_name)
                changed = True
    return reads


def _mentions_barrier(fn: FunctionInfo, inv: StateInvariant) -> bool:
    """The method body calls the barrier or tests/sets the stale flag."""
    for node in ast.walk(fn.node):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr in (inv.barrier, inv.stale_flag)):
            return True
    return False


def check_stale_reads(ctx: StaticContext) -> Iterator[Diagnostic]:
    """Public guarded-state reads with no recompile barrier in sight."""
    for program, inv, cls in _invariant_classes(ctx):
        if inv.stale_flag is None or inv.barrier is None:
            continue
        guarded = frozenset((*inv.guarded_fields, *inv.cache_attrs))
        readers = _guarded_readers(program, cls, guarded)
        for method_name in sorted(cls.methods):
            if method_name.startswith("_") or method_name in inv.exempt:
                continue
            if method_name not in readers:
                continue
            fn = program.functions.get(cls.methods[method_name])
            if fn is None or _mentions_barrier(fn, inv):
                continue
            if ctx.suppressed("I003", fn.module, fn.lineno):
                continue
            yield Diagnostic(
                rule="I003", severity=Severity.ERROR,
                message=f"{cls.name}.{method_name} reads guarded state "
                        f"but neither calls self.{inv.barrier}() nor "
                        f"tests self.{inv.stale_flag} — it can observe "
                        f"doomed compiled state",
                obj=f"{fn.module}:{fn.lineno}",
                hint=f"call self.{inv.barrier}() on entry (or guard on "
                     f"self.{inv.stale_flag}) before touching arena "
                     f"fields or derived caches")
