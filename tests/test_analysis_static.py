"""Tests for the whole-program determinism / cache-soundness analyzer.

Mirrors the seeded-corruption pattern of ``test_verify.py``: every D/C
code gets a fixture package with exactly one planted violation that the
analyzer must flag, plus a clean twin it must pass.  The fixtures are
real source trees written under ``tmp_path`` and parsed by
:func:`repro.analysis.build_program` — nothing is mocked, so the tests
exercise import resolution, the call graph and the effect fixpoint the
same way ``repro lint --static`` does.
"""

import textwrap
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import (ContextStateSpec, StaticContext, WorkerGroup,
                            analyze_program, build_program,
                            build_static_context, unsuppressed_rationales)
from repro.units import Dim
from repro.engine.invariants import StateInvariant
from repro.io.artifacts import STAGE_KEY_MANIFEST, StageKeyEntry
from repro.verify import Severity, registered_checks


def _context(tmp_path, source, *, det_roots=("pkg.mod.stage",),
             proc_roots=(), whitelist=(), manifest=(), invariants=(),
             worker_groups=(), payload_types=(), context_specs=(),
             dims_manifest=None, unit_constants=None, dim_roots=()):
    """Write ``source`` as ``pkg/mod.py`` and build a StaticContext."""
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(textwrap.dedent(source))
    program = build_program(pkg, package="pkg")
    return StaticContext(program=program, determinism_roots=det_roots,
                         process_roots=proc_roots, env_whitelist=whitelist,
                         manifest=manifest, invariants=invariants,
                         worker_groups=worker_groups,
                         payload_types=payload_types,
                         context_specs=context_specs,
                         dimensions_manifest=dict(dims_manifest or {}),
                         unit_constants=dict(unit_constants or {}),
                         dim_signature_roots=tuple(dim_roots))


def _rules(report):
    return {d.rule for d in report.diagnostics}


# -- D001: unseeded RNG --------------------------------------------------------


def test_d001_flags_unseeded_default_rng(tmp_path):
    ctx = _context(tmp_path, """\
        import numpy as np

        def stage(params):
            rng = np.random.default_rng()
            return rng.random() + params.alpha
        """)
    report = analyze_program(ctx)
    assert "D001" in _rules(report)
    (diag,) = report.by_rule("D001")
    assert diag.severity == Severity.ERROR
    assert "default_rng" in diag.message


def test_d001_flags_global_rng_helpers(tmp_path):
    ctx = _context(tmp_path, """\
        import random

        def stage(params):
            return random.shuffle(params.items)
        """)
    report = analyze_program(ctx)
    assert "D001" in _rules(report)


def test_d001_clean_when_seeded(tmp_path):
    ctx = _context(tmp_path, """\
        import numpy as np

        def stage(params):
            rng = np.random.default_rng(params.seed)
            return rng.random()
        """)
    assert "D001" not in _rules(analyze_program(ctx))


# -- D002: wall clock ----------------------------------------------------------


def test_d002_flags_wall_clock(tmp_path):
    ctx = _context(tmp_path, """\
        import time

        def stage(params):
            return time.perf_counter()
        """)
    report = analyze_program(ctx)
    assert "D002" in _rules(report)


def test_d002_reports_transitive_witness_path(tmp_path):
    ctx = _context(tmp_path, """\
        import time

        def _helper():
            return time.time()

        def stage(params):
            return _helper()
        """)
    (diag,) = analyze_program(ctx).by_rule("D002")
    assert "pkg.mod.stage -> pkg.mod._helper" in diag.message


@pytest.mark.parametrize("annotation", ["Clock", '"Clock"'])
def test_d002_sees_through_an_annotated_factory(tmp_path, annotation):
    """``c = make_clock(); c.now()`` resolves through the factory's
    return annotation, plain or string."""
    ctx = _context(tmp_path, """\
        import time

        class Clock:
            def now(self):
                return time.time()

        def make_clock() -> ANNOTATION:
            return Clock()

        def stage(params):
            c = make_clock()
            return c.now()
        """.replace("ANNOTATION", annotation))
    (diag,) = analyze_program(ctx).by_rule("D002")
    assert "pkg.mod.stage -> pkg.mod.Clock.now" in diag.message


def test_d002_clean_without_clock(tmp_path):
    ctx = _context(tmp_path, """\
        def stage(params):
            return params.alpha * 2
        """)
    assert "D002" not in _rules(analyze_program(ctx))


# -- D003: environment reads ---------------------------------------------------


def test_d003_flags_env_read_outside_whitelist(tmp_path):
    ctx = _context(tmp_path, """\
        import os

        def stage(params):
            return os.environ.get("PKG_TUNING")
        """)
    report = analyze_program(ctx)
    assert "D003" in _rules(report)


def test_d003_clean_for_whitelisted_variable(tmp_path):
    ctx = _context(tmp_path, """\
        import os

        def stage(params):
            return os.environ.get("PKG_TUNING")
        """, whitelist=("PKG_TUNING",))
    assert "D003" not in _rules(analyze_program(ctx))


def test_d003_resolves_env_var_through_module_constant(tmp_path):
    ctx = _context(tmp_path, """\
        import os

        TUNING_ENV = "PKG_TUNING"

        def stage(params):
            return os.environ.get(TUNING_ENV)
        """, whitelist=("PKG_TUNING",))
    assert "D003" not in _rules(analyze_program(ctx))


# -- D004: shared-state mutation -----------------------------------------------


def test_d004_flags_module_global_store(tmp_path):
    ctx = _context(tmp_path, """\
        _CACHE = {}

        def stage(params):
            _CACHE[params.key] = params.alpha
            return _CACHE
        """)
    report = analyze_program(ctx)
    assert "D004" in _rules(report)


def test_d004_flags_global_declaration(tmp_path):
    ctx = _context(tmp_path, """\
        _MODE = "fast"

        def stage(params):
            global _MODE
            _MODE = params.mode
            return _MODE
        """)
    assert "D004" in _rules(analyze_program(ctx))


def test_d004_clean_for_local_mutation(tmp_path):
    ctx = _context(tmp_path, """\
        def stage(params):
            cache = {}
            cache[params.key] = params.alpha
            return cache
        """)
    assert "D004" not in _rules(analyze_program(ctx))


# -- D005: set iteration order -------------------------------------------------


def test_d005_flags_set_iteration(tmp_path):
    ctx = _context(tmp_path, """\
        def stage(params):
            out = []
            for item in {1, 2, 3}:
                out.append(item)
            return out
        """)
    report = analyze_program(ctx)
    assert "D005" in _rules(report)


def test_d005_clean_when_sorted(tmp_path):
    ctx = _context(tmp_path, """\
        def stage(params):
            out = []
            for item in sorted({1, 2, 3}):
                out.append(item)
            return out
        """)
    assert "D005" not in _rules(analyze_program(ctx))


def test_d005_clean_for_order_insensitive_sink(tmp_path):
    ctx = _context(tmp_path, """\
        def stage(params):
            return sum(x * x for x in {1, 2, 3})
        """)
    assert "D005" not in _rules(analyze_program(ctx))


# -- D006: object identity -----------------------------------------------------


def test_d006_flags_id(tmp_path):
    ctx = _context(tmp_path, """\
        def stage(params):
            return {id(params): params.alpha}
        """)
    report = analyze_program(ctx)
    assert "D006" in _rules(report)


def test_d006_clean_without_identity(tmp_path):
    ctx = _context(tmp_path, """\
        def stage(params):
            return {params.key: params.alpha}
        """)
    assert "D006" not in _rules(analyze_program(ctx))


# -- D-codes only fire at declared roots ---------------------------------------


def test_unreachable_violations_are_ignored(tmp_path):
    ctx = _context(tmp_path, """\
        import time

        def unrelated():
            return time.time()

        def stage(params):
            return params.alpha
        """)
    assert not analyze_program(ctx).diagnostics


def test_process_roots_are_analyzed_too(tmp_path):
    ctx = _context(tmp_path, """\
        import time

        def worker(job):
            return time.time()

        def stage(params):
            return params.alpha
        """, proc_roots=("pkg.mod.worker",))
    assert "D002" in _rules(analyze_program(ctx))


# -- C-codes: cache-key soundness ----------------------------------------------

_PARAMS_PRELUDE = """\
from dataclasses import dataclass


@dataclass(frozen=True)
class Params:
    alpha: int
    beta: int


"""


def _params_fixture(body):
    """The shared Params dataclass plus a dedented stage body."""
    return _PARAMS_PRELUDE + textwrap.dedent(body)


def _entry(hashed):
    return StageKeyEntry(kind="test", stage="pkg.mod.stage",
                         params_type="pkg.mod.Params",
                         params_param="params", hashed_fields=hashed)


def test_c001_flags_read_of_unhashed_field(tmp_path):
    ctx = _context(tmp_path, _params_fixture("""\
        def stage(params):
            return params.alpha + params.beta
        """), det_roots=(), manifest=(_entry(("alpha",)),))
    report = analyze_program(ctx)
    (diag,) = report.by_rule("C001")
    assert diag.severity == Severity.ERROR
    assert "beta" in diag.message


def test_c001_traces_reads_through_helper_calls(tmp_path):
    ctx = _context(tmp_path, _params_fixture("""\
        def _helper(p):
            return p.beta * 2


        def stage(params):
            return params.alpha + _helper(params)
        """), det_roots=(), manifest=(_entry(("alpha",)),))
    report = analyze_program(ctx)
    assert "C001" in _rules(report)


def test_c002_warns_on_hashed_field_never_read(tmp_path):
    ctx = _context(tmp_path, _params_fixture("""\
        def stage(params):
            return params.alpha
        """), det_roots=(), manifest=(_entry(("alpha", "beta")),))
    report = analyze_program(ctx)
    (diag,) = report.by_rule("C002")
    assert diag.severity == Severity.WARN
    assert "beta" in diag.message


def test_c00x_clean_when_key_matches_reads(tmp_path):
    ctx = _context(tmp_path, _params_fixture("""\
        def stage(params):
            return params.alpha + params.beta
        """), det_roots=(), manifest=(_entry(("alpha", "beta")),))
    assert not analyze_program(ctx).diagnostics


def test_c003_flags_env_read_in_stage_closure(tmp_path):
    ctx = _context(tmp_path, _params_fixture("""\
        import os


        def stage(params):
            if os.environ.get("PKG_FAST"):
                return params.alpha
            return params.beta
        """), det_roots=(), manifest=(_entry(("alpha", "beta")),))
    report = analyze_program(ctx)
    (diag,) = report.by_rule("C003")
    assert diag.severity == Severity.ERROR
    assert "PKG_FAST" in diag.message


def test_c003_flags_mutable_global_read(tmp_path):
    ctx = _context(tmp_path, _params_fixture("""\
        _MODE = "fast"


        def configure(mode):
            global _MODE
            _MODE = mode


        def stage(params):
            return params.alpha if _MODE == "fast" else params.beta
        """), det_roots=(), manifest=(_entry(("alpha", "beta")),))
    report = analyze_program(ctx)
    assert "C003" in _rules(report)


def test_c003_clean_for_immutable_module_constant(tmp_path):
    ctx = _context(tmp_path, _params_fixture("""\
        _SCALE = 10


        def stage(params):
            return params.alpha * _SCALE + params.beta
        """), det_roots=(), manifest=(_entry(("alpha", "beta")),))
    assert not analyze_program(ctx).diagnostics


# -- I001: mutation -> invalidation pairing ------------------------------------

_KERNEL_INVARIANT = StateInvariant(
    cls="pkg.mod.Kernel", guarded_fields=("r",),
    invalidators=("_invalidate",), cache_attrs=("_down",),
    exempt=("__init__",))


def test_i001_flags_unpaired_guarded_write(tmp_path):
    ctx = _context(tmp_path, """\
        class Kernel:
            def __init__(self):
                self.r = [0.0]
                self._down = None

            def _invalidate(self):
                self._down = None

            def patch(self, value):
                self.r[0] = value
                return value
        """, det_roots=(), invariants=(_KERNEL_INVARIANT,))
    (diag,) = analyze_program(ctx).by_rule("I001")
    assert diag.severity == Severity.ERROR
    assert "patch" in diag.message and "'r'" in diag.message


def test_i001_flags_write_on_early_return_path(tmp_path):
    ctx = _context(tmp_path, """\
        class Kernel:
            def __init__(self):
                self.r = [0.0]
                self._down = None

            def _invalidate(self):
                self._down = None

            def patch(self, value, dry):
                self.r[0] = value
                if dry:
                    return False
                self._invalidate()
                return True
        """, det_roots=(), invariants=(_KERNEL_INVARIANT,))
    assert "I001" in _rules(analyze_program(ctx))


def test_i001_clean_when_write_postdominated(tmp_path):
    ctx = _context(tmp_path, """\
        class Kernel:
            def __init__(self):
                self.r = [0.0]
                self._down = None

            def _invalidate(self):
                self._down = None

            def patch(self, value):
                self.r[0] = value
                self._invalidate()
                return value
        """, det_roots=(), invariants=(_KERNEL_INVARIANT,))
    assert not analyze_program(ctx).diagnostics


def test_i001_flags_unpaired_private_writer_call_site(tmp_path):
    # The write inside _load is fine as long as every in-class call of
    # _load is itself post-dominated by the invalidation; patch() is not.
    ctx = _context(tmp_path, """\
        class Kernel:
            def __init__(self):
                self.r = 0.0
                self._down = None

            def _invalidate(self):
                self._down = None

            def _load(self, value):
                self.r = value

            def patch(self, value):
                self._load(value)
                return value
        """, det_roots=(), invariants=(_KERNEL_INVARIANT,))
    (diag,) = analyze_program(ctx).by_rule("I001")
    assert "calls guarded writer _load()" in diag.message


def test_i001_clean_when_private_writer_sites_paired(tmp_path):
    ctx = _context(tmp_path, """\
        class Kernel:
            def __init__(self):
                self.r = 0.0
                self._down = None

            def _invalidate(self):
                self._down = None

            def _load(self, value):
                self.r = value

            def patch(self, value):
                self._load(value)
                self._invalidate()
                return value
        """, det_roots=(), invariants=(_KERNEL_INVARIANT,))
    assert not analyze_program(ctx).diagnostics


def test_i001_counts_stale_mark_as_invalidation(tmp_path):
    ctx = _context(tmp_path, """\
        class Kernel:
            def __init__(self):
                self.r = 0.0
                self._stale = False

            def _ensure(self):
                self._stale = False

            def patch(self, value):
                self.r = value
                self._stale = True
        """, det_roots=(),
        invariants=(StateInvariant(
            cls="pkg.mod.Kernel", guarded_fields=("r",),
            stale_flag="_stale", barrier="_ensure",
            exempt=("__init__",)),))
    assert "I001" not in _rules(analyze_program(ctx))


# -- I002: manifest drift ------------------------------------------------------


def test_i002_flags_undefined_invalidator(tmp_path):
    ctx = _context(tmp_path, """\
        class Kernel:
            def __init__(self):
                self.r = 0.0
        """, det_roots=(),
        invariants=(StateInvariant(
            cls="pkg.mod.Kernel", guarded_fields=("r",),
            invalidators=("_flush",), exempt=("__init__",)),))
    (diag,) = analyze_program(ctx).by_rule("I002")
    assert "'_flush'" in diag.message


def test_i002_flags_dead_guarded_field(tmp_path):
    ctx = _context(tmp_path, """\
        class Kernel:
            def __init__(self):
                self.r = 0.0
                self._down = None

            def _invalidate(self):
                self._down = None
        """, det_roots=(),
        invariants=(StateInvariant(
            cls="pkg.mod.Kernel", guarded_fields=("r", "w"),
            invalidators=("_invalidate",), exempt=("__init__",)),))
    (diag,) = analyze_program(ctx).by_rule("I002")
    assert "dead guard" in diag.message and "'w'" in diag.message


def test_i002_clean_when_manifest_matches_class(tmp_path):
    ctx = _context(tmp_path, """\
        class Kernel:
            def __init__(self):
                self.r = 0.0
                self._down = None

            def _invalidate(self):
                self._down = None
        """, det_roots=(), invariants=(_KERNEL_INVARIANT,))
    assert not analyze_program(ctx).diagnostics


# -- I003: guarded reads without the recompile barrier -------------------------

_BARRIER_INVARIANT = StateInvariant(
    cls="pkg.mod.Kernel", guarded_fields=("r",), cache_attrs=("_down",),
    stale_flag="_stale", barrier="_ensure", exempt=("__init__",))

_BARRIER_CLASS_HEAD = """\
    class Kernel:
        def __init__(self):
            self.r = 1.0
            self._down = None
            self._stale = True

        def _ensure(self):
            if self._stale:
                self._down = [self.r]
                self._stale = False

        def mutate(self, value):
            self.r = value
            self._stale = True

"""


def test_i003_flags_public_read_without_barrier(tmp_path):
    ctx = _context(tmp_path, _BARRIER_CLASS_HEAD + """\
        def timing(self):
            return self._down
    """, det_roots=(), invariants=(_BARRIER_INVARIANT,))
    (diag,) = analyze_program(ctx).by_rule("I003")
    assert diag.severity == Severity.ERROR
    assert "timing" in diag.message and "_ensure" in diag.message


def test_i003_traces_reads_through_self_call_closure(tmp_path):
    ctx = _context(tmp_path, _BARRIER_CLASS_HEAD + """\
        def _raw(self):
            return self._down

        def timing(self):
            return self._raw()
    """, det_roots=(), invariants=(_BARRIER_INVARIANT,))
    diags = analyze_program(ctx).by_rule("I003")
    assert [d for d in diags if "timing" in d.message]


def test_i003_clean_when_barrier_called(tmp_path):
    ctx = _context(tmp_path, _BARRIER_CLASS_HEAD + """\
        def timing(self):
            self._ensure()
            return self._down
    """, det_roots=(), invariants=(_BARRIER_INVARIANT,))
    assert not analyze_program(ctx).diagnostics


# -- S001: worker-read globals the initializer never resets --------------------

_GROUP = WorkerGroup(entry="pkg.mod.worker", initializer="pkg.mod.init")


def test_s001_flags_unreset_worker_global(tmp_path):
    ctx = _context(tmp_path, """\
        _CACHE = {}

        def remember(key, value):
            _CACHE[key] = value

        def worker(job):
            remember(job.key, job.value)
            return _CACHE[job.key]

        def init():
            pass
        """, det_roots=(), worker_groups=(_GROUP,))
    report = analyze_program(ctx)
    assert "S001" in _rules(report)
    diag = report.by_rule("S001")[0]
    assert "_CACHE" in diag.message and "pkg.mod.init" in diag.message


def test_s001_clean_when_initializer_resets(tmp_path):
    ctx = _context(tmp_path, """\
        _CACHE = {}

        def remember(key, value):
            _CACHE[key] = value

        def worker(job):
            remember(job.key, job.value)
            return _CACHE[job.key]

        def init():
            global _CACHE
            _CACHE = {}
        """, det_roots=(), worker_groups=(_GROUP,))
    assert "S001" not in _rules(analyze_program(ctx))


def test_s001_clean_for_import_time_constants(tmp_path):
    # A global nothing reachable ever mutates is configuration, not
    # drifting state — reading it in a worker is fine.
    ctx = _context(tmp_path, """\
        _SCALE = 10

        def worker(job):
            return job.alpha * _SCALE

        def init():
            pass
        """, det_roots=(), worker_groups=(_GROUP,))
    assert not analyze_program(ctx).diagnostics


# -- S002: payload picklability ------------------------------------------------


def test_s002_flags_callable_payload_field(tmp_path):
    ctx = _context(tmp_path, """\
        from dataclasses import dataclass
        from typing import Callable


        @dataclass(frozen=True)
        class Job:
            key: str
            hook: Callable
        """, det_roots=(), payload_types=("pkg.mod.Job",))
    (diag,) = analyze_program(ctx).by_rule("S002")
    assert diag.severity == Severity.ERROR
    assert "hook" in diag.message


def test_s002_flags_non_dataclass_program_class_field(tmp_path):
    ctx = _context(tmp_path, """\
        from dataclasses import dataclass


        class Live:
            def __init__(self):
                self.handle = open("/dev/null")


        @dataclass(frozen=True)
        class Job:
            key: str
            live: Live
        """, det_roots=(), payload_types=("pkg.mod.Job",))
    (diag,) = analyze_program(ctx).by_rule("S002")
    assert "Live" in diag.message


def test_s002_clean_for_plain_data_payload(tmp_path):
    ctx = _context(tmp_path, """\
        from dataclasses import dataclass
        from enum import Enum


        class Mode(Enum):
            FAST = "fast"
            SLOW = "slow"


        @dataclass(frozen=True)
        class Sub:
            gamma: float


        @dataclass(frozen=True)
        class Job:
            key: str
            alpha: int
            mode: Mode
            sub: Sub
            tags: "tuple[str, ...]"
            extra: "str | None" = None
        """, det_roots=(), payload_types=("pkg.mod.Job",))
    assert not analyze_program(ctx).diagnostics


# -- S003: env access outside the forwarded seam -------------------------------


def test_s003_flags_worker_env_read_outside_whitelist(tmp_path):
    ctx = _context(tmp_path, """\
        import os

        def worker(job):
            return os.environ.get("PKG_SECRET")

        def init():
            pass
        """, det_roots=(), worker_groups=(_GROUP,))
    (diag,) = analyze_program(ctx).by_rule("S003")
    assert "PKG_SECRET" in diag.message


def test_s003_flags_worker_env_write_even_when_whitelisted(tmp_path):
    ctx = _context(tmp_path, """\
        import os

        def worker(job):
            os.environ["PKG_MODE"] = job.mode
            return job.alpha

        def init():
            pass
        """, det_roots=(), whitelist=("PKG_MODE",),
        worker_groups=(_GROUP,))
    (diag,) = analyze_program(ctx).by_rule("S003")
    assert "must not write" in diag.message


def test_s003_clean_for_seam_replay(tmp_path):
    # The canonical seam: the initializer replays a forwarded variable,
    # the worker reads it — both on the whitelist, both fine.
    ctx = _context(tmp_path, """\
        import os

        def worker(job):
            return os.environ.get("PKG_MODE")

        def init():
            os.environ["PKG_MODE"] = "fast"
        """, det_roots=(), whitelist=("PKG_MODE",),
        worker_groups=(_GROUP,))
    assert not analyze_program(ctx).diagnostics


_NESTED_GROUPS = (WorkerGroup(entry="pkg.mod.outer",
                              initializer="pkg.mod.outer_init"),
                  WorkerGroup(entry="pkg.mod.inner",
                              initializer="pkg.mod.inner_init"))

_NESTED_POOL = """\
    import os
    from concurrent.futures import ProcessPoolExecutor

    _CTX = None

    def inner_init(mode):
        global _CTX
        os.environ["PKG_MODE"] = mode
        _CTX = mode

    def inner(job):
        return (_CTX, job)

    def outer_init():
        pass

    def outer(jobs):
        with ProcessPoolExecutor(initializer=inner_init,
                                 initargs=("fast",)) as pool:
            return list(pool.map(inner, jobs))
    """


def test_s00x_nested_pool_runs_under_its_own_group(tmp_path):
    # A worker that starts its own pool hands the inner entry and
    # initializer to new processes: the inner group's initializer
    # resets the global and replays the variable there, so neither is
    # the outer worker's concern.
    ctx = _context(tmp_path, _NESTED_POOL, det_roots=(),
                   whitelist=("PKG_MODE",), worker_groups=_NESTED_GROUPS)
    assert not analyze_program(ctx).diagnostics


def test_s001_still_flags_a_nested_entry_called_in_process(tmp_path):
    source = _NESTED_POOL + """\

    def outer_serial(jobs):
        return [inner(job) for job in jobs]
    """
    groups = (WorkerGroup(entry="pkg.mod.outer_serial",
                          initializer="pkg.mod.outer_init"),
              _NESTED_GROUPS[1])
    ctx = _context(tmp_path, source, det_roots=(),
                   whitelist=("PKG_MODE",), worker_groups=groups)
    (diag,) = analyze_program(ctx).by_rule("S001")
    assert "_CTX" in diag.message and "outer_serial" in diag.message


# -- S004: context-local state without an installer ----------------------------

_TRACER_SPEC = ContextStateSpec(
    name="tracer", accessors=("pkg.mod.span_active",),
    installers=("pkg.mod.enable", "pkg.mod.disable"))


def test_s004_flags_accessor_without_installer(tmp_path):
    ctx = _context(tmp_path, """\
        def span_active():
            return True

        def enable():
            pass

        def disable():
            pass

        def worker(job):
            if span_active():
                return 1
            return 0

        def init():
            pass
        """, det_roots=(), worker_groups=(_GROUP,),
        context_specs=(_TRACER_SPEC,))
    (diag,) = analyze_program(ctx).by_rule("S004")
    assert "span_active" in diag.message
    assert "pkg.mod.worker" in diag.message


def test_s004_clean_when_initializer_installs(tmp_path):
    ctx = _context(tmp_path, """\
        def span_active():
            return True

        def enable():
            pass

        def disable():
            pass

        def worker(job):
            if span_active():
                return 1
            return 0

        def init():
            disable()
        """, det_roots=(), worker_groups=(_GROUP,),
        context_specs=(_TRACER_SPEC,))
    assert not analyze_program(ctx).diagnostics


# -- static-config -------------------------------------------------------------


def test_static_config_flags_unknown_root(tmp_path):
    ctx = _context(tmp_path, """\
        def stage(params):
            return params.alpha
        """, det_roots=("pkg.mod.stage", "pkg.mod.missing"))
    report = analyze_program(ctx)
    (diag,) = report.by_rule("static-config")
    assert "pkg.mod.missing" in diag.message


def test_static_config_flags_unknown_manifest_entry(tmp_path):
    ctx = _context(tmp_path, """\
        def stage(params):
            return params.alpha
        """, det_roots=(),
        manifest=(StageKeyEntry(kind="test", stage="pkg.mod.gone",
                                params_type="pkg.mod.Nope",
                                params_param="p", hashed_fields=()),))
    report = analyze_program(ctx)
    assert len(report.by_rule("static-config")) == 2


def test_static_config_flags_unknown_stateful_config(tmp_path):
    ctx = _context(tmp_path, """\
        def stage(params):
            return params.alpha
        """,
        invariants=(StateInvariant(cls="pkg.mod.Gone",
                                   guarded_fields=("r",)),),
        worker_groups=(WorkerGroup(entry="pkg.mod.nope",
                                   initializer="pkg.mod.nada"),),
        payload_types=("pkg.mod.Missing",),
        context_specs=(ContextStateSpec(name="tracer",
                                        accessors=("pkg.mod.absent",),
                                        installers=()),))
    messages = [d.message for d in analyze_program(ctx).by_rule("static-config")]
    assert len(messages) == 5
    for name in ("pkg.mod.Gone", "pkg.mod.nope", "pkg.mod.nada",
                 "pkg.mod.Missing", "pkg.mod.absent"):
        assert any(name in m for m in messages)


# -- suppressions --------------------------------------------------------------


def test_suppression_silences_the_named_code(tmp_path):
    ctx = _context(tmp_path, """\
        import time

        def stage(params):
            return time.perf_counter()  # static: ok[D002] metadata only
        """)
    assert "D002" not in _rules(analyze_program(ctx))


def test_suppression_is_code_specific(tmp_path):
    ctx = _context(tmp_path, """\
        import time

        def stage(params):
            return time.perf_counter()  # static: ok[D001] wrong code
        """)
    assert "D002" in _rules(analyze_program(ctx))


def test_suppression_takes_multiple_codes(tmp_path):
    ctx = _context(tmp_path, """\
        import time

        def stage(params):
            return id(time.time())  # static: ok[D002,D006] both planted
        """)
    assert not analyze_program(ctx).diagnostics


def test_suppression_without_rationale_fails_hygiene(tmp_path):
    ctx = _context(tmp_path, """\
        import time

        def stage(params):
            return time.time()  # static: ok[D002]
        """)
    assert "D002" not in _rules(analyze_program(ctx))
    (marker,) = unsuppressed_rationales(ctx)
    assert marker.codes == ("D002",)


# -- the real package ----------------------------------------------------------


@pytest.fixture(scope="module")
def repro_ctx():
    return build_static_context()


def test_repro_package_is_static_clean(repro_ctx):
    report = analyze_program(repro_ctx)
    assert not report.has_errors, report.render()
    assert not report.warnings, report.render()


def test_repro_suppressions_all_carry_rationales(repro_ctx):
    missing = unsuppressed_rationales(repro_ctx)
    assert not missing, \
        [f"{s.module}:{s.lineno} ok[{','.join(s.codes)}]" for s in missing]


def test_manifest_names_resolve_in_repro(repro_ctx):
    for entry in STAGE_KEY_MANIFEST:
        assert entry.stage in repro_ctx.program.functions
        assert entry.params_type in repro_ctx.program.classes
        fields = set(repro_ctx.program.classes[entry.params_type].fields)
        assert set(entry.hashed_fields) <= fields


def test_every_repro_process_pool_has_an_initializer():
    """A forked worker inherits the parent's installed tracer, so every
    pool in the package resets worker state through an initializer."""
    import ast
    from pathlib import Path

    import repro

    root = Path(repro.__file__).parent
    pools, bare = 0, []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.attr if isinstance(func, ast.Attribute)
                    else getattr(func, "id", None))
            if name != "ProcessPoolExecutor":
                continue
            pools += 1
            if not any(kw.arg == "initializer" for kw in node.keywords):
                bare.append(f"{path.relative_to(root)}:{node.lineno}")
    assert pools >= 3  # runner, suite rows, serve workers
    assert not bare, f"ProcessPoolExecutor without initializer= at {bare}"


# -- CLI / registry wiring -----------------------------------------------------


def test_cli_lint_static_exits_clean():
    from repro.cli import main
    assert main(["lint", "--static"]) == 0


def test_cli_lint_static_reports_planted_violation(tmp_path, capsys):
    from repro.cli import main
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(textwrap.dedent("""\
        import repro.core.stages  # unused, keeps package importable
        """))
    # A foreign package root has none of repro's declared roots, so the
    # config check must flag every one of them.
    code = main(["lint", "--static", str(pkg)])
    out = capsys.readouterr().out
    assert code == 1
    assert "static-config" in out


def test_list_checks_includes_static_catalogue(capsys):
    from repro.cli import main
    assert main(["lint", "--list-checks"]) == 0
    out = capsys.readouterr().out
    for code in ("D001", "D002", "D003", "D004", "D005", "D006",
                 "C001", "C002", "C003",
                 "I001", "I002", "I003",
                 "S001", "S002", "S003", "S004",
                 "static-config",
                 "Q001", "Q002", "Q003", "Q004", "Q005",
                 "U001", "U002"):
        assert code in out


def test_static_checks_registered_under_static_kind():
    import repro.analysis  # noqa: F401 - registration side effect
    static = registered_checks(kinds=["static"])
    assert {c.rule for c in static} >= {
        "D001", "D002", "D003", "D004", "D005", "D006",
        "C001", "C002", "C003",
        "I001", "I002", "I003",
        "S001", "S002", "S003", "S004",
        "static-config",
        "Q001", "Q002", "Q003", "Q004", "Q005",
        "U001", "U002"}
    assert all(c.doc for c in static)


# -- Q001: mismatched dimension arithmetic -------------------------------------


_DIM_HEADER = """\
    from typing import Annotated

    from repro.units import Dim

"""


def test_q001_flags_cross_dimension_add(tmp_path):
    ctx = _context(tmp_path, _DIM_HEADER + """\
    def mix(cap: Annotated[float, Dim.CAPACITANCE],
            slew: Annotated[float, Dim.TIME]) -> float:
        return cap + slew
    """)
    report = analyze_program(ctx)
    assert "Q001" in _rules(report)
    (diag,) = [d for d in report.diagnostics if d.rule == "Q001"]
    assert "capacitance" in diag.message and "time" in diag.message


def test_q001_flags_return_contradicting_declaration(tmp_path):
    ctx = _context(tmp_path, _DIM_HEADER + """\
    def period(freq: Annotated[float, Dim.FREQUENCY],
               ) -> Annotated[float, Dim.TIME]:
        return freq
    """)
    report = analyze_program(ctx)
    assert "Q001" in _rules(report)


def test_q001_clean_for_same_dimension_and_literals(tmp_path):
    ctx = _context(tmp_path, _DIM_HEADER + """\
    def total(a: Annotated[float, Dim.CAPACITANCE],
              b: Annotated[float, Dim.CAPACITANCE]) -> float:
        acc = 0.0
        acc += a + b
        return max(0.0, acc)
    """)
    report = analyze_program(ctx)
    assert "Q001" not in _rules(report)


def test_q001_propagates_interprocedurally(tmp_path):
    # The violation is only visible once helper()'s inferred TIME return
    # flows back into the caller's addition — no annotation on helper.
    ctx = _context(tmp_path, _DIM_HEADER + """\
    def helper(r: Annotated[float, Dim.RESISTANCE],
               c: Annotated[float, Dim.CAPACITANCE]) -> float:
        return r * c

    def caller(r: Annotated[float, Dim.RESISTANCE],
               c: Annotated[float, Dim.CAPACITANCE]) -> float:
        return helper(r, c) + c
    """)
    report = analyze_program(ctx)
    (diag,) = [d for d in report.diagnostics if d.rule == "Q001"]
    assert "caller" in diag.message


# -- Q002: unnamed conversion literal ------------------------------------------


def test_q002_flags_dimensioned_scale_by_1000(tmp_path):
    ctx = _context(tmp_path, _DIM_HEADER + """\
    def to_ns(delay: Annotated[float, Dim.TIME]) -> float:
        return delay * 1000.0  # static: ok[U002] planted for the Q002 twin
    """)
    report = analyze_program(ctx)
    assert "Q002" in _rules(report)


def test_q002_clean_for_dimensionless_scaling(tmp_path):
    ctx = _context(tmp_path, _DIM_HEADER + """\
    def scaled(delay: Annotated[float, Dim.TIME], gain: float) -> float:
        return delay * gain
    """)
    report = analyze_program(ctx)
    assert "Q002" not in _rules(report)


# -- Q003: call-site dimension contradiction -----------------------------------


def test_q003_flags_period_passed_as_frequency(tmp_path):
    ctx = _context(tmp_path, _DIM_HEADER + """\
    def period_of(cycles: float) -> Annotated[float, Dim.TIME]:
        return cycles

    def set_clock(freq: Annotated[float, Dim.FREQUENCY]) -> float:
        return freq

    def bad(cycles: float) -> float:
        return set_clock(period_of(cycles))
    """)
    report = analyze_program(ctx)
    (diag,) = [d for d in report.diagnostics if d.rule == "Q003"]
    assert "frequency/period confusion" in diag.message


def test_q003_clean_for_matching_argument(tmp_path):
    ctx = _context(tmp_path, _DIM_HEADER + """\
    def freq_of(period: Annotated[float, Dim.TIME],
                ) -> Annotated[float, Dim.FREQUENCY]:
        return 1.0 / period

    def set_clock(freq: Annotated[float, Dim.FREQUENCY]) -> float:
        return freq

    def good(period: Annotated[float, Dim.TIME]) -> float:
        return set_clock(freq_of(period))
    """)
    report = analyze_program(ctx)
    assert "Q003" not in _rules(report)


# -- Q004: annotation-coverage ratchet -----------------------------------------


def test_q004_flags_bare_manifest_named_parameter(tmp_path):
    ctx = _context(tmp_path, """\
    def run(clock_period: float) -> float:
        return clock_period
    """, dims_manifest={"clock_period": Dim.TIME}, dim_roots=("pkg.mod",))
    report = analyze_program(ctx)
    q004 = [d for d in report.diagnostics if d.rule == "Q004"]
    assert any("clock_period" in d.message for d in q004)
    # 0/1 coverage is below the 90% ratchet: the gauge goes ERROR.
    assert any(d.severity is Severity.ERROR for d in q004)


def test_q004_gauge_reports_full_coverage(tmp_path):
    ctx = _context(tmp_path, _DIM_HEADER + """\
    def run(clock_period: Annotated[float, Dim.TIME],
            ) -> Annotated[float, Dim.TIME]:
        return clock_period
    """, dims_manifest={"clock_period": Dim.TIME}, dim_roots=("pkg.mod",))
    report = analyze_program(ctx)
    q004 = [d for d in report.diagnostics if d.rule == "Q004"]
    assert len(q004) == 1
    assert q004[0].severity is Severity.INFO
    assert "100.0%" in q004[0].message


def test_q004_ignores_modules_outside_signature_roots(tmp_path):
    ctx = _context(tmp_path, """\
    def run(clock_period: float) -> float:
        return clock_period
    """, dims_manifest={"clock_period": Dim.TIME}, dim_roots=("other.pkg",))
    report = analyze_program(ctx)
    assert "Q004" not in _rules(report)


# -- Q005: manifest field consumed under a different dimension -----------------


def test_q005_flags_manifest_field_passed_to_wrong_parameter(tmp_path):
    ctx = _context(tmp_path, _DIM_HEADER + """\
    def set_clock(freq: Annotated[float, Dim.FREQUENCY]) -> float:
        return freq

    def bad(spec) -> float:
        return set_clock(spec.clock_period)
    """, dims_manifest={"clock_period": Dim.TIME})
    report = analyze_program(ctx)
    (diag,) = [d for d in report.diagnostics if d.rule == "Q005"]
    assert "clock_period" in diag.message


def test_q005_clean_when_declaration_and_use_agree(tmp_path):
    ctx = _context(tmp_path, _DIM_HEADER + """\
    def set_period(period: Annotated[float, Dim.TIME]) -> float:
        return period

    def good(spec) -> float:
        return set_period(spec.clock_period)
    """, dims_manifest={"clock_period": Dim.TIME})
    report = analyze_program(ctx)
    assert "Q005" not in _rules(report)


# -- U001/U002 as registered static checks -------------------------------------


def test_u001_registered_check_flags_float_equality(tmp_path):
    ctx = _context(tmp_path, """\
    def f(x: float) -> bool:
        return x == 0.0
    """)
    report = analyze_program(ctx)
    assert "U001" in _rules(report)


def test_u002_registered_check_flags_conversion_literal(tmp_path):
    ctx = _context(tmp_path, """\
    def f(x: float) -> float:
        return x * 0.001
    """)
    report = analyze_program(ctx)
    assert "U002" in _rules(report)


def test_static_ok_suppression_covers_q_and_u_codes(tmp_path):
    ctx = _context(tmp_path, _DIM_HEADER + """\
    def mix(cap: Annotated[float, Dim.CAPACITANCE],
            slew: Annotated[float, Dim.TIME]) -> float:
        return cap + slew  # static: ok[Q001] planted, suppressed

    def f(x: float) -> bool:
        return x == 0.0  # static: ok[U001] exact sentinel
    """)
    report = analyze_program(ctx)
    assert "Q001" not in _rules(report)
    assert "U001" not in _rules(report)


# -- code-family filtering (--codes Q*) ----------------------------------------


def test_expand_code_patterns_selects_the_q_family():
    from repro.analysis import expand_code_patterns
    assert expand_code_patterns(["Q*"]) == [
        "Q001", "Q002", "Q003", "Q004", "Q005"]
    with pytest.raises(KeyError):
        expand_code_patterns(["Z*"])


def test_analyze_program_with_codes_runs_only_that_family(tmp_path):
    ctx = _context(tmp_path, """\
    def f(x: float) -> bool:
        return x == 0.0
    """)
    report = analyze_program(ctx, codes=["Q*"])
    assert set(report.checks_run) == {"Q001", "Q002", "Q003", "Q004", "Q005"}
    assert "U001" not in _rules(report)


# -- the dimension lattice algebra (property-based) ----------------------------


_BASE_DIMS = (Dim.DIMENSIONLESS, Dim.LENGTH, Dim.RESISTANCE,
              Dim.CAPACITANCE, Dim.VOLTAGE, Dim.TIME, Dim.FREQUENCY,
              Dim.ENERGY, Dim.POWER, Dim.CURRENT)

_concrete_dims = st.builds(
    lambda parts: parts[0] if len(parts) == 1
    else parts[0].mul(parts[1]) if len(parts) == 2
    else parts[0].mul(parts[1]).div(parts[2]),
    st.lists(st.sampled_from(_BASE_DIMS), min_size=1, max_size=3))

_any_dims = st.one_of(_concrete_dims,
                      st.sampled_from((Dim.TOP, Dim.BOTTOM)))


@given(a=_any_dims, b=_any_dims)
def test_dim_mul_is_commutative(a, b):
    assert a.mul(b) == b.mul(a)


@given(a=_any_dims, b=_any_dims, c=_any_dims)
def test_dim_mul_is_associative(a, b, c):
    assert a.mul(b).mul(c) == a.mul(b.mul(c))


@given(a=_concrete_dims)
def test_dim_div_inverts_mul(a):
    assert a.mul(a.inverse()) == Dim.DIMENSIONLESS
    assert a.div(a) == Dim.DIMENSIONLESS
    assert a.pow(2).pow(Fraction(1, 2)) == a


@given(a=_any_dims)
def test_dim_top_never_launders(a):
    # TOP absorbs through every operation: an unknown dimension can
    # never combine back into a concrete one.
    for result in (Dim.TOP.mul(a), a.mul(Dim.TOP),
                   Dim.TOP.div(a), a.div(Dim.TOP)):
        assert result is not None
        if a.special != "bottom":
            assert result == Dim.TOP
    assert Dim.TOP.join(a) == (Dim.TOP if a.special != "bottom"
                               else Dim.TOP)


@given(a=_any_dims, b=_any_dims)
def test_dim_join_is_commutative_and_bounded(a, b):
    joined = a.join(b)
    assert joined == b.join(a)
    assert a.join(a) == a
    assert Dim.BOTTOM.join(a) == a
    if a != b and a.special != "bottom" and b.special != "bottom":
        assert joined == Dim.TOP
