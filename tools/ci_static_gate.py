#!/usr/bin/env python3
"""CI gate around ``repro lint --static``: annotations plus a time budget.

Runs the whole-program analyzer in JSON mode as a subprocess, parses
the machine-readable report, and re-emits every finding as a GitHub
Actions workflow annotation (``::error file=...,line=...``) so findings
land on the offending line of the PR diff instead of only in the job
log.  Two gates decide the exit status:

* any ERROR diagnostic (the analyzer's own contract: the package must
  lint clean, every deliberate hit suppressed with a rationale);
* analyzer wall time at or over the budget (default 30 s) — the
  static job runs on every PR, so a super-linear regression in the
  call-graph/effect fixpoint must fail loudly instead of silently
  eating CI minutes.

Usage::

    python tools/ci_static_gate.py [--package src/repro] [--budget 30]

Pure stdlib; exits 0 clean / 1 findings / 2 over budget or broken run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

#: GitHub annotation level per analyzer severity.
_LEVELS = {"ERROR": "error", "WARN": "warning", "INFO": "notice"}


def _source_path(package_root: Path, module: str) -> Path | None:
    """``repro.engine.batched`` -> ``src/repro/engine/batched.py``."""
    parts = module.split(".")
    if not parts or parts[0] != package_root.name:
        return None
    rel = Path(*parts[1:]) if len(parts) > 1 else Path()
    for candidate in (package_root / rel.with_suffix(".py"),
                      package_root / rel / "__init__.py"):
        if candidate.is_file():
            return candidate
    return None


def _annotation(package_root: Path, diag: dict) -> str:
    """One ``::error``/``::warning`` workflow-command line."""
    level = _LEVELS.get(diag.get("severity", "ERROR"), "error")
    rule = diag.get("rule", "static")
    message = diag.get("message", "")
    if diag.get("hint"):
        message += f" (hint: {diag['hint']})"
    # Workflow-command payloads are single-line; properties escape , and :
    message = message.replace("%", "%25").replace("\n", "%0A")
    fields = [f"title=static {rule}"]
    obj = diag.get("obj", "")
    module, _, lineno = str(obj).partition(":")
    path = _source_path(package_root, module) if module else None
    if path is not None:
        fields.insert(0, f"file={path}")
        if lineno.isdigit():
            fields.insert(1, f"line={lineno}")
    return f"::{level} {','.join(fields)}::{rule}: {message}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--package", default="src/repro",
                        help="package root to lint (default src/repro)")
    parser.add_argument("--budget", type=float, default=30.0, metavar="SEC",
                        help="max analyzer wall time in seconds (default 30)")
    args = parser.parse_args(argv)
    package_root = Path(args.package)

    command = [sys.executable, "-m", "repro", "lint", "--static", "--json",
               str(package_root)]
    start = time.perf_counter()
    proc = subprocess.run(command, capture_output=True, text=True)
    elapsed = time.perf_counter() - start

    try:
        report = json.loads(proc.stdout)
    except json.JSONDecodeError:
        print(f"::error title=static gate::analyzer produced no JSON "
              f"report (exit {proc.returncode})")
        sys.stderr.write(proc.stdout + proc.stderr)
        return 2

    for diag in report.get("diagnostics", []):
        print(_annotation(package_root, diag))

    # Surface the Q004 dimension-annotation coverage gauge in the job
    # summary line, not just as a ::notice annotation, so the ratchet's
    # headroom is visible at a glance in the log.
    for diag in report.get("diagnostics", []):
        if (diag.get("rule") == "Q004"
                and "annotation coverage" in diag.get("message", "")):
            print(f"static gate: {diag['message']}")
            break

    counts = report.get("counts", {})
    checks = len(report.get("checks_run", []))
    print(f"static gate: {checks} checks, "
          f"{counts.get('ERROR', 0)} errors, {counts.get('WARN', 0)} "
          f"warnings, {counts.get('INFO', 0)} notes in {elapsed:.1f}s "
          f"(budget {args.budget:.0f}s)")

    if elapsed >= args.budget:
        print(f"::error title=static gate::analyzer took {elapsed:.1f}s, "
              f"at/over the {args.budget:.0f}s budget — the whole-program "
              f"fixpoint has regressed")
        return 2
    return 1 if counts.get("ERROR", 0) else 0


if __name__ == "__main__":
    raise SystemExit(main())
