"""D-codes: determinism and process-safety of the flow's root functions.

The pipeline's correctness contract (PR 3) is that a parallel run
equals a serial run bit for bit and a cached artifact equals a rebuilt
one.  Both reduce to the same static property: every function reachable
from a *stage function* or a *worker entrypoint* must be deterministic
in its arguments and free of cross-process shared-state coupling.  Each
D-code checks one way that property breaks, over the transitive effect
closure computed by :mod:`repro.analysis.effects`:

========  ====================================================================
D001      unseeded RNG (``random.*`` / ``numpy.random.*`` global state,
          ``default_rng()`` with no seed, OS entropy) reachable from a root
D002      wall-clock reads (``time.time``/``perf_counter``/``datetime.now``)
          reachable from a root
D003      ``os.environ`` reads outside the runner's forwarded-variable
          whitelist (:data:`repro.runner.runner.FORWARDED_ENV_WHITELIST`)
D004      mutation of module-level or closure state (including env writes
          outside the whitelist) reachable from a root
D005      ``set`` iteration order escaping into results
D006      object identity (``id()`` / ``hash()``) feeding results — both are
          interpreter- and process-dependent for most types
========  ====================================================================

Suppress a deliberate occurrence with ``# static: ok[CODE] rationale``
on the origin line (see ``docs/VERIFY.md``).  All D-codes are ERROR:
a legitimate flow never needs an unsuppressed occurrence.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional

from repro.analysis.effects import (Effect, EffectOrigin,
                                    transitive_origins)
from repro.analysis.report import StaticContext
from repro.verify.diagnostics import Diagnostic, Severity


def _render_path(path: tuple[str, ...]) -> str:
    if len(path) <= 4:
        return " -> ".join(path)
    return " -> ".join((*path[:2], "...", *path[-2:]))


def _effect_diagnostics(
        ctx: StaticContext, code: str, effects: Iterable[Effect],
        roots: Iterable[str], hint: str,
        origin_filter: Optional[Callable[[EffectOrigin], bool]] = None,
) -> Iterator[Diagnostic]:
    """Shared D-code engine: reachable origins -> deduped diagnostics."""
    program = ctx.program
    seen: set[tuple[str, int, str]] = set()
    for root in roots:
        if root not in program.functions:
            continue  # static-config check reports unknown roots
        for item in transitive_origins(program, root, effects):
            origin = item.origin
            if origin_filter is not None and not origin_filter(origin):
                continue
            key = (origin.module, origin.lineno, origin.detail)
            if key in seen:
                continue
            seen.add(key)
            if ctx.suppressed(code, origin.module, origin.lineno):
                continue
            yield Diagnostic(
                rule=code, severity=Severity.ERROR,
                message=f"{origin.detail} "
                        f"[reached via {_render_path(item.path)}]",
                obj=f"{origin.module}:{origin.lineno}",
                hint=hint)


def _all_roots(ctx: StaticContext) -> tuple[str, ...]:
    return tuple(ctx.determinism_roots) + tuple(ctx.process_roots)


def check_unseeded_rng(ctx: StaticContext) -> Iterator[Diagnostic]:
    """Unseeded RNG state reachable from a stage or worker root."""
    yield from _effect_diagnostics(
        ctx, "D001", (Effect.RANDOM_SEEDLESS,), _all_roots(ctx),
        hint="thread an explicit seed through the call chain "
             "(np.random.default_rng(seed)); global RNG state diverges "
             "between workers and reruns")


def check_wall_clock(ctx: StaticContext) -> Iterator[Diagnostic]:
    """Wall-clock reads reachable from a stage or worker root."""
    yield from _effect_diagnostics(
        ctx, "D002", (Effect.WALL_CLOCK,), _all_roots(ctx),
        hint="wall-clock values folded into results break bit-identical "
             "reruns; keep timing in metadata fields and suppress the "
             "origin with a rationale")


def check_env_reads(ctx: StaticContext) -> Iterator[Diagnostic]:
    """Environment reads outside the runner's forwarded whitelist."""
    whitelist = set(ctx.env_whitelist)

    def outside_whitelist(origin: EffectOrigin) -> bool:
        return origin.env_var is None or origin.env_var not in whitelist

    yield from _effect_diagnostics(
        ctx, "D003", (Effect.ENV_READ,), _all_roots(ctx),
        origin_filter=outside_whitelist,
        hint="workers only inherit the forwarded variables "
             "(FORWARDED_ENV_WHITELIST); read anything else before the "
             "flow starts and pass it as an argument")


def check_shared_state(ctx: StaticContext) -> Iterator[Diagnostic]:
    """Module/closure state mutation reachable from a stage or worker root."""
    whitelist = set(ctx.env_whitelist)

    def relevant(origin: EffectOrigin) -> bool:
        if origin.effect != Effect.ENV_WRITE:
            return True
        return origin.env_var is None or origin.env_var not in whitelist

    yield from _effect_diagnostics(
        ctx, "D004",
        (Effect.GLOBAL_MUTATION, Effect.CLOSURE_MUTATION, Effect.ENV_WRITE),
        _all_roots(ctx), origin_filter=relevant,
        hint="mutations of module-level state are invisible to sibling "
             "worker processes and leak between cells of a serial run; "
             "return the value instead")


def check_set_order(ctx: StaticContext) -> Iterator[Diagnostic]:
    """Set iteration order escaping into results."""
    yield from _effect_diagnostics(
        ctx, "D005", (Effect.SET_ORDER,), _all_roots(ctx),
        hint="set iteration order depends on hash seeds and insertion "
             "history; iterate sorted(the_set) when elements escape")


def check_object_identity(ctx: StaticContext) -> Iterator[Diagnostic]:
    """id()/hash() feeding results reachable from a root."""
    yield from _effect_diagnostics(
        ctx, "D006", (Effect.OBJECT_IDENTITY,), _all_roots(ctx),
        hint="id() is an address and str hashes are salted per process; "
             "key on stable content (names, indices) instead")
