"""Q/U-codes: physical-dimension soundness of the coherent unit system.

The Q family is the output of the interprocedural dimension inference
(:mod:`repro.analysis.dimensions`): every expression gets a point of
the :class:`repro.units.Dim` lattice, seeded from ``Annotated[float,
Dim.X]`` signatures, the :data:`repro.units.DIMENSIONS` manifest and
the named unit constants, and propagated through arithmetic, numpy
elementwise ops and call edges to fixpoint.

========  ====================================================================
Q001      add/subtract/compare mixes two different concrete dimensions
          (``cap + slew``), or a return value contradicts the declared
          ``Annotated`` return dimension; ERROR
Q002      a dimensioned value is scaled by an unnamed ``1000.0``/``0.001``
          conversion literal — the dimension survives but the *unit*
          silently changes scale (the interprocedural strengthening of
          U002); ERROR
Q003      a call site passes a dimension the parameter annotation
          contradicts; reciprocal pairs (time vs. frequency, energy vs.
          power) are called out by name; ERROR
Q004      coverage ratchet: a public signature slot in the declared
          signature roots is a bare ``float`` although the DIMENSIONS
          manifest types its name (INFO per slot, plus one coverage
          gauge; ERROR when coverage drops below 90%)
Q005      a manifest-declared field (``spec.clock_period``,
          ``data["period_ps"]``) is consumed by a parameter declared
          with a *different* dimension — the declaration and the use
          disagree; ERROR
========  ====================================================================

The U family is the older, purely lexical unit hygiene; :func:`main`
runs it standalone over files or directories:

========  ====================================================================
U001      float-literal equality (``x == 0.0``) on physical quantities:
          exact comparison turns into "never"/"always" under round-off;
          ERROR
U002      magic conversion constant ``1000.0``/``0.001`` outside
          ``repro/units.py``: a milli/kilo conversion hiding from the
          unit system; ERROR
========  ====================================================================

All codes honor ``# static: ok[CODE] rationale`` suppressions.
"""

from __future__ import annotations

import argparse
import ast
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.dimensions import (CONVERSION_LITERAL_VALUES,
                                       DimConfig, DimensionAnalysis,
                                       DimFinding)
from repro.analysis.report import SUPPRESS_RE, StaticContext
from repro.units import DIM_NAMES, Dim
from repro.verify.diagnostics import Diagnostic, Severity

#: Q004 ratchet: the fraction of public unit-bearing signature slots
#: that must carry a dimension annotation.
Q004_COVERAGE_THRESHOLD = 0.9

#: Float literals that duplicate repro.units conversion constants
#: (1e3 == 1000.0 and 1e-3 == 0.001 compare equal, so two entries
#: cover all four spellings).  Tolerances like 1e-6/1e-9 are not unit
#: conversions and stay legal.  Defined once in
#: :mod:`repro.analysis.dimensions`, shared by Q002 and U002.
CONVERSION_LITERALS: Tuple[float, ...] = CONVERSION_LITERAL_VALUES

#: Files whose whole purpose is defining the conversion constants.
EXEMPT_FILES: Tuple[str, ...] = ("units.py",)

#: Trees linted when the standalone CLI is given no paths, relative to
#: the repo root.
DEFAULT_TREES: Tuple[str, ...] = ("src", "tools", "benchmarks")


# -- shared Q-analysis plumbing ----------------------------------------------


def _dim_analysis(ctx: StaticContext) -> DimensionAnalysis:
    """The (cached) whole-program dimension analysis for ``ctx``."""
    program = ctx.program
    cached = program.caches.get("dim_analysis")
    if not isinstance(cached, DimensionAnalysis):
        config = DimConfig(
            manifest=dict(ctx.dimensions_manifest),
            unit_constants=dict(ctx.unit_constants),
            signature_roots=tuple(ctx.dim_signature_roots))
        cached = DimensionAnalysis(program, config)
        program.caches["dim_analysis"] = cached
    return cached


def _dim_findings(ctx: StaticContext, code: str) -> List[DimFinding]:
    return [f for f in _dim_analysis(ctx).findings
            if f.code == code and not ctx.suppressed(code, f.module,
                                                     f.lineno)]


def _dim_attr(dim: Dim) -> str:
    """The ``Dim.NAME`` spelling of a named dimension, for hints."""
    for name, value in DIM_NAMES.items():
        if value == dim:
            return f"Dim.{name}"
    return f"<Dim {dim.label()}>"  # pragma: no cover - manifest uses names


def _as_diagnostic(finding: DimFinding) -> Diagnostic:
    return Diagnostic(
        rule=finding.code, severity=Severity.ERROR,
        message=finding.message,
        obj=f"{finding.module}:{finding.lineno}",
        hint=finding.hint)


def check_dimension_mismatch(ctx: StaticContext) -> Iterator[Diagnostic]:
    """Add/subtract/compare mixes two different concrete dimensions."""
    for finding in _dim_findings(ctx, "Q001"):
        yield _as_diagnostic(finding)


def check_unnamed_conversion(ctx: StaticContext) -> Iterator[Diagnostic]:
    """A dimensioned value is scaled by a magic conversion literal."""
    for finding in _dim_findings(ctx, "Q002"):
        yield _as_diagnostic(finding)


def check_call_dimension(ctx: StaticContext) -> Iterator[Diagnostic]:
    """A call site passes a dimension the parameter contradicts."""
    for finding in _dim_findings(ctx, "Q003"):
        yield _as_diagnostic(finding)


def check_manifest_field_use(ctx: StaticContext) -> Iterator[Diagnostic]:
    """A DIMENSIONS-declared field is consumed under another dimension."""
    for finding in _dim_findings(ctx, "Q005"):
        yield _as_diagnostic(finding)


def check_signature_coverage(ctx: StaticContext) -> Iterator[Diagnostic]:
    """Public unit-bearing signatures carry dimension annotations."""
    analysis = _dim_analysis(ctx)
    total = analysis.covered + len(analysis.gaps)
    if total == 0:
        return
    gaps = [g for g in analysis.gaps
            if not ctx.suppressed("Q004", g.module, g.lineno)]
    for gap in gaps:
        yield Diagnostic(
            rule="Q004", severity=Severity.INFO,
            message=f"public slot '{gap.slot}' of {gap.function} is a "
                    f"bare float although the DIMENSIONS manifest "
                    f"declares '{gap.dim.label()}' for that name",
            obj=f"{gap.module}:{gap.lineno}",
            hint=f"annotate as Annotated[float, {_dim_attr(gap.dim)}]")
    covered = total - len(gaps)
    ratio = covered / total
    yield Diagnostic(
        rule="Q004", severity=Severity.INFO,
        message=f"dimension annotation coverage {ratio:.1%} "
                f"({covered}/{total} public unit-bearing slots)",
        hint="the Q004 gauge; the ratchet fails below "
             f"{Q004_COVERAGE_THRESHOLD:.0%}")
    if ratio < Q004_COVERAGE_THRESHOLD:
        yield Diagnostic(
            rule="Q004", severity=Severity.ERROR,
            message=f"dimension annotation coverage {ratio:.1%} is below "
                    f"the {Q004_COVERAGE_THRESHOLD:.0%} ratchet "
                    f"({len(gaps)} public unit-bearing slots lack "
                    f"annotations)",
            hint="annotate the slots listed above (or suppress with a "
                 "rationale where the manifest name collides)")


# -- U001/U002: lexical unit hygiene -----------------------------------------


def _is_float_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    # Negative literals parse as UnaryOp(USub, Constant).
    return (isinstance(node, ast.UnaryOp)
            and isinstance(node.op, (ast.USub, ast.UAdd))
            and _is_float_literal(node.operand))


def _literal_value(node: ast.expr) -> float:
    if isinstance(node, ast.Constant):
        value = node.value
        if not isinstance(value, float):
            raise TypeError(f"not a float literal: {value!r}")
        return value
    if isinstance(node, ast.UnaryOp) and _is_float_literal(node.operand):
        inner = _literal_value(node.operand)
        return -inner if isinstance(node.op, ast.USub) else inner
    raise TypeError(f"not a float literal: {ast.dump(node)}")


def _marker_suppressed(source_lines: Sequence[str], rule: str,
                       lineno: int) -> bool:
    """Inline suppression: ``# static: ok[U00x]``."""
    if lineno < 1 or lineno > len(source_lines):
        return False
    match = SUPPRESS_RE.search(source_lines[lineno - 1])
    return match is not None and rule in {
        code.strip() for code in match.group(1).split(",")}


def _scan_tree(tree: ast.AST, *, exempt_conversions: bool,
               suppressed: Callable[[str, int], bool],
               ) -> Iterator[Tuple[int, int, str, str]]:
    """U001/U002 hits as ``(lineno, col, rule, message)`` tuples."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                literal = next((o for o in (left, right)
                                if _is_float_literal(o)), None)
                if literal is None or suppressed("U001", node.lineno):
                    continue
                yield (node.lineno, node.col_offset, "U001",
                       f"float-literal equality (== / != with "
                       f"{_literal_value(literal)!r}); use an ordering "
                       f"comparison, a tolerance, or a predicate "
                       f"[suppress: # static: ok[U001] <why>]")
        elif (isinstance(node, ast.Constant)
              and isinstance(node.value, float)
              and not exempt_conversions
              and node.value in CONVERSION_LITERALS
              and not suppressed("U002", node.lineno)):
            yield (node.lineno, node.col_offset, "U002",
                   f"magic unit-conversion constant {node.value!r}; use "
                   f"the named constant from repro.units "
                   f"[suppress: # static: ok[U002] <why>]")


def _unit_hygiene(ctx: StaticContext) -> List[Tuple[str, int, int, str, str]]:
    """(module, lineno, col, rule, message) hits across the program."""
    program = ctx.program
    cached = program.caches.get("unit_hygiene")
    if not isinstance(cached, list):
        cached = []
        for module in program.modules.values():
            try:
                tree = ast.parse("\n".join(module.source_lines))
            except SyntaxError:  # pragma: no cover - parsed once already
                continue

            def marker(rule: str, lineno: int,
                       lines: Sequence[str] = module.source_lines) -> bool:
                return _marker_suppressed(lines, rule, lineno)

            for lineno, col, rule, message in _scan_tree(
                    tree,
                    exempt_conversions=module.path.name in EXEMPT_FILES,
                    suppressed=marker):
                cached.append((module.name, lineno, col, rule, message))
        program.caches["unit_hygiene"] = cached
    return cached


def _hygiene_diagnostics(ctx: StaticContext, rule: str) -> Iterator[Diagnostic]:
    for module, lineno, _col, hit_rule, message in _unit_hygiene(ctx):
        if hit_rule == rule and not ctx.suppressed(rule, module, lineno):
            yield Diagnostic(
                rule=rule, severity=Severity.ERROR, message=message,
                obj=f"{module}:{lineno}",
                hint="see the U-code catalogue in docs/VERIFY.md")


def check_float_equality(ctx: StaticContext) -> Iterator[Diagnostic]:
    """Float-literal equality on physical quantities."""
    yield from _hygiene_diagnostics(ctx, "U001")


def check_conversion_literal(ctx: StaticContext) -> Iterator[Diagnostic]:
    """Magic 1000.0/0.001 conversion constants outside repro.units."""
    yield from _hygiene_diagnostics(ctx, "U002")


# -- standalone path-based API ------------------------------------------------


def default_paths() -> List[Path]:
    """The repo's lintable trees, skipping any that do not exist."""
    root = Path(__file__).resolve().parents[3]
    return [root / tree for tree in DEFAULT_TREES if (root / tree).is_dir()]


@dataclass(frozen=True)
class Finding:
    """One standalone-linter hit."""

    path: Path
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        """``path:line:col: RULE message`` (editor-clickable)."""
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule} {self.message}")


def lint_file(path: Path) -> List[Finding]:
    """Lint one Python file; returns its findings (possibly empty)."""
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [Finding(path, exc.lineno or 0, exc.offset or 0, "U000",
                        f"syntax error: {exc.msg}")]
    lines = source.splitlines()

    def marker(rule: str, lineno: int) -> bool:
        return _marker_suppressed(lines, rule, lineno)

    hits = _scan_tree(tree, exempt_conversions=path.name in EXEMPT_FILES,
                      suppressed=marker)
    return sorted((Finding(path, line, col, rule, message)
                   for line, col, rule, message in hits),
                  key=lambda f: (f.line, f.col, f.rule))


def lint_paths(paths: Sequence[Path]) -> List[Finding]:
    """Lint every ``*.py`` file under the given files/directories."""
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    findings: List[Finding] = []
    for file in files:
        findings.extend(lint_file(file))
    return findings


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Standalone CLI over :func:`lint_paths`; exit 1 on hits.

    Run it as ``python -m repro.analysis.rules_units [paths]``.
    """
    parser = argparse.ArgumentParser(
        description="unit-hygiene linter (U001 float-literal equality, "
                    "U002 magic unit-conversion constants); the full "
                    "dimension inference (Q codes) runs via "
                    "'repro lint --static'")
    parser.add_argument("paths", nargs="*", type=Path,
                        help="files or directories to lint "
                             "(default: the repo's src, tools and "
                             "benchmarks trees)")
    args = parser.parse_args(argv)
    findings = lint_paths(args.paths or default_paths())
    for finding in findings:
        print(finding.render())
    if findings:
        print(f"{len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
