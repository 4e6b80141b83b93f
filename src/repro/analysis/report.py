"""Static-analysis context and inline suppressions.

``repro lint --static`` builds a :class:`StaticContext` — the program
model plus the declared analysis roots, the runner's forwarded-env
whitelist and the cache-key manifest — and runs the static checks over
it (:data:`repro.analysis.STATIC_CHECKS`, the same runner the DRC/oracle
family uses), so D/C findings come out as ordinary
:class:`~repro.verify.diagnostics.Diagnostic` records in a
:class:`~repro.verify.diagnostics.VerifyReport`.

Suppressions are inline and carry the code they silence::

    start = time.perf_counter()  # static: ok[D002] runtime metadata only

``# static: ok[D002,C003] reason`` silences several codes on one line.
A marker without a rationale after the bracket is still honored at
runtime but fails the repo's own hygiene test
(``tests/test_analysis_static.py``), which keeps the acceptance rule
"every suppression carries a rationale" machine-checked; so does a
marker that silences nothing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Optional, Sequence, Union

from repro.analysis.callgraph import ProgramModel, build_program
from repro.verify.diagnostics import Diagnostic, Severity

if TYPE_CHECKING:  # runtime imports stay lazy: the analyzer is AST-pure
    from repro.engine.invariants import StateInvariant
    from repro.io.artifacts import StageKeyEntry
    from repro.units import Dim

#: ``# static: ok[D001]`` / ``# static: ok[D002,C003] rationale``
SUPPRESS_RE = re.compile(r"#\s*static:\s*ok\[([A-Z0-9,\s]+)\]\s*(.*)")

#: Stage functions whose transitive closure must be deterministic: the
#: four pipeline stages of :mod:`repro.core.stages`.
DEFAULT_DETERMINISM_ROOTS: tuple[str, ...] = (
    "repro.core.stages.build_stage",
    "repro.core.stages.policy_stage",
    "repro.core.stages.retrim_stage",
    "repro.core.stages.analyze_stage",
)

#: Functions that execute inside worker processes: the pool
#: initializer/entry of the flow runner, the CLI's suite worker and
#: the serve daemon's request worker.
DEFAULT_PROCESS_ROOTS: tuple[str, ...] = (
    "repro.runner.runner._pool_init",
    "repro.runner.runner._pool_run",
    "repro.cli._suite_row",
    "repro.serve.workers._serve_pool_init",
    "repro.serve.workers._serve_pool_run",
    "repro.serve.workers._serve_pool_ping",
)


@dataclass(frozen=True)
class WorkerGroup:
    """One process-pool seam: a worker entry and its pool initializer.

    The S-codes (:mod:`repro.analysis.rules_state`) analyze each group
    as a unit: state the entry's closure touches must be reset or
    installed by the *same group's* initializer.
    """

    entry: str
    initializer: Optional[str] = None


@dataclass(frozen=True)
class ContextStateSpec:
    """One context-local state family for S004 (e.g. the obs tracer)."""

    name: str
    #: Functions that read the context state.
    accessors: tuple[str, ...]
    #: Functions that install or reset it (any one reachable from the
    #: group satisfies the check).
    installers: tuple[str, ...]


#: The pool seams of this repository: the flow runner's worker pool,
#: the CLI suite table's row pool and the serve daemon's request pool.
DEFAULT_WORKER_GROUPS: tuple[WorkerGroup, ...] = (
    WorkerGroup(entry="repro.runner.runner._pool_run",
                initializer="repro.runner.runner._pool_init"),
    WorkerGroup(entry="repro.cli._suite_row",
                initializer="repro.obs.spans.disable"),
    WorkerGroup(entry="repro.serve.workers._serve_pool_run",
                initializer="repro.serve.workers._serve_pool_init"),
)

#: The obs tracer is context-local state: worker code may traverse its
#: accessors only when the group installs (or disables) a tracer.
DEFAULT_CONTEXT_SPECS: tuple[ContextStateSpec, ...] = (
    ContextStateSpec(
        name="obs tracer",
        accessors=("repro.obs.spans.active", "repro.obs.spans.span",
                   "repro.obs.spans.current_span_id"),
        installers=("repro.obs.spans.enable", "repro.obs.spans.disable",
                    "repro.obs.spans.capture")),
)

#: Dataclasses pickled into worker processes (S002).
DEFAULT_PAYLOAD_TYPES: tuple[str, ...] = ("repro.runner.matrix.JobSpec",)

#: Module prefixes whose public unit-bearing signatures the Q004
#: annotation-coverage ratchet applies to.
DEFAULT_DIM_SIGNATURE_ROOTS: tuple[str, ...] = (
    "repro.timing", "repro.power", "repro.extract", "repro.reliability",
    "repro.engine",
)


@dataclass
class Suppression:
    """One inline suppression marker found in a module."""

    module: str
    lineno: int
    codes: tuple[str, ...]
    rationale: str


@dataclass
class StaticContext:
    """Everything one static-analysis run inspects."""

    program: ProgramModel
    determinism_roots: tuple[str, ...] = DEFAULT_DETERMINISM_ROOTS
    process_roots: tuple[str, ...] = DEFAULT_PROCESS_ROOTS
    env_whitelist: tuple[str, ...] = ()
    manifest: tuple["StageKeyEntry", ...] = ()
    #: Stateful-soundness config (I/S codes).  Default empty so a
    #: bare fixture context exercises only the D/C families; the real
    #: package context (:func:`build_static_context`) fills them in.
    invariants: tuple["StateInvariant", ...] = ()
    worker_groups: tuple[WorkerGroup, ...] = ()
    payload_types: tuple[str, ...] = ()
    context_specs: tuple[ContextStateSpec, ...] = ()
    #: Dimension-inference config (Q codes): the DIMENSIONS manifest,
    #: the fully-qualified unit-constant table and the Q004 signature
    #: roots.  Empty by default for the same fixture-isolation reason.
    dimensions_manifest: dict[str, "Dim"] = field(default_factory=dict)
    unit_constants: dict[str, "Dim"] = field(default_factory=dict)
    dim_signature_roots: tuple[str, ...] = ()
    _suppressions: Optional[dict[tuple[str, int], Suppression]] = field(
        default=None, repr=False)

    def suppressions(self) -> dict[tuple[str, int], Suppression]:
        """(module, lineno) -> marker, scanned lazily from the sources."""
        if self._suppressions is None:
            table: dict[tuple[str, int], Suppression] = {}
            for module in self.program.modules.values():
                for i, line in enumerate(module.source_lines, start=1):
                    match = SUPPRESS_RE.search(line)
                    if match is not None:
                        codes = tuple(c.strip()
                                      for c in match.group(1).split(",")
                                      if c.strip())
                        table[(module.name, i)] = Suppression(
                            module=module.name, lineno=i, codes=codes,
                            rationale=match.group(2).strip())
            self._suppressions = table
        return self._suppressions

    def suppressed(self, code: str, module: str, lineno: int) -> bool:
        """True when ``module:lineno`` carries a marker for ``code``."""
        marker = self.suppressions().get((module, lineno))
        return marker is not None and code in marker.codes


def check_static_config(ctx: StaticContext) -> Iterator[Diagnostic]:
    """Declared roots and manifest entries resolve to real functions."""
    program = ctx.program
    for root in (*ctx.determinism_roots, *ctx.process_roots):
        if root not in program.functions:
            yield Diagnostic(
                rule="static-config", severity=Severity.ERROR,
                message=f"declared analysis root '{root}' does not exist "
                        f"in package '{program.package}'",
                hint="update the root lists in repro.analysis.report (or "
                     "the ones passed to StaticContext) after renaming "
                     "stage/worker functions")
    for entry in ctx.manifest:
        missing = [name for name, attr in (
            (entry.stage, "functions"), (entry.params_type, "classes"))
            if name not in getattr(program, attr)]
        for name in missing:
            yield Diagnostic(
                rule="static-config", severity=Severity.ERROR,
                message=f"manifest entry '{entry.kind}' names unknown "
                        f"'{name}'",
                hint="keep STAGE_KEY_MANIFEST in sync with the stage "
                     "functions and parameter dataclasses it describes")

    def unknown(kind: str, name: str, table: str) -> Diagnostic:
        return Diagnostic(
            rule="static-config", severity=Severity.ERROR,
            message=f"{kind} names unknown {table} '{name}'",
            hint="keep the stateful-soundness config (repro.engine."
                 "invariants, repro.analysis.report defaults) in sync "
                 "with the code it describes")

    for inv in ctx.invariants:
        if inv.cls not in program.classes:
            yield unknown("state invariant", inv.cls, "class")
    for group in ctx.worker_groups:
        if group.entry not in program.functions:
            yield unknown("worker group", group.entry, "entry function")
        if group.initializer \
                and group.initializer not in program.functions:
            yield unknown("worker group", group.initializer,
                          "initializer function")
    for payload in ctx.payload_types:
        if payload not in program.classes:
            yield unknown("payload type", payload, "class")
    for spec in ctx.context_specs:
        for name in (*spec.accessors, *spec.installers):
            if name not in program.functions:
                yield unknown(f"context spec '{spec.name}'", name,
                              "function")


def build_static_context(
        paths: Optional[Sequence[Union[str, Path]]] = None) -> StaticContext:
    """The default context: the installed ``repro`` package itself.

    ``paths`` may name one package root directory (e.g. ``src/repro``);
    the repro-specific roots, whitelist and manifest still apply, which
    is exactly right for linting a checkout of this repository.
    """
    import repro
    from repro.engine.invariants import ENGINE_STATE_INVARIANTS
    from repro.io.artifacts import STAGE_KEY_MANIFEST
    from repro.runner.runner import FORWARDED_ENV_WHITELIST
    from repro.units import DIMENSIONS, UNIT_DIMENSIONS

    if paths:
        if len(paths) > 1:
            raise ValueError("static analysis takes one package root")
        root = Path(paths[0])
    else:
        root = Path(repro.__file__).parent
    program = build_program(root, package="repro")
    return StaticContext(program=program,
                         env_whitelist=FORWARDED_ENV_WHITELIST,
                         manifest=STAGE_KEY_MANIFEST,
                         invariants=ENGINE_STATE_INVARIANTS,
                         worker_groups=DEFAULT_WORKER_GROUPS,
                         payload_types=DEFAULT_PAYLOAD_TYPES,
                         context_specs=DEFAULT_CONTEXT_SPECS,
                         dimensions_manifest=dict(DIMENSIONS),
                         unit_constants={
                             f"repro.units.{name}": dim
                             for name, dim in UNIT_DIMENSIONS.items()},
                         dim_signature_roots=DEFAULT_DIM_SIGNATURE_ROOTS)


def unsuppressed_rationales(ctx: StaticContext) -> list[Suppression]:
    """Suppression markers with no rationale text (hygiene violations)."""
    return [s for s in ctx.suppressions().values() if not s.rationale]
