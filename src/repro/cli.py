"""Command-line interface.

Subcommands::

    python -m repro suite [--designs SEL,..] [--jobs N] [--json]
    python -m repro run --design ckt256 --policy smart [--json]
    python -m repro compare --design ckt256 [--jobs N] [--json]
    python -m repro sweep --design ckt128 --slacks 0.6,0.3,0.15 [--jobs N]
    python -m repro designs list [--family F] [--json]  # the corpus registry
    python -m repro designs show ckt256 [--json]
    python -m repro designs gen soc_h256 [--out d.json] [--deflite d.dl.json]
    python -m repro designs import floorplan.json [--out d.json]
    python -m repro designs validate ckt64 family:gated floorplan.json
    python -m repro lint --design ckt256 --policy smart [--json]
    python -m repro lint --static [src/repro]          # whole-program static codes
    python -m repro lint --static --codes 'Q*' --json  # one rule family only
    python -m repro trace trace.jsonl [--top N]        # render a trace file
    python -m repro serve [--port P] [--workers N]     # the flow-service daemon
    python -m repro store stats [--json]               # artifact cache counters
    python -m repro store gc [--max-bytes N]           # LRU-evict to a budget

``run``/``compare``/``sweep``/``lint`` parse their flags into the same
typed request objects the service accepts (:mod:`repro.api`), so the
request dataclasses are the single source of truth for defaults.

``--design`` accepts a corpus design name or a path to a design JSON
file (see :mod:`repro.io`); ``suite --designs`` additionally accepts
corpus selectors — globs (``'ckt*'``) and families
(``family:hierarchical``, ``family:*``) from :mod:`repro.designs`.
Robustness budgets default to the all-NDR-reference peg; ``--slack``
controls its tightness.

Every command schedules its flows through the
:class:`~repro.runner.FlowRunner`: the all-NDR reference is a cached
upstream job computed once per (design, tech), the default-rule build
is shared across policies and slacks, and completed cells are
content-addressed in the on-disk artifact store, so repeat invocations
are warm.  The programmatic equivalents live in :mod:`repro.api`.

Common options (every subcommand): ``--jobs N`` fans the cells out
over worker processes; ``--no-cache`` disables the artifact store;
``--trace [PATH]`` records the run as an :mod:`repro.obs` trace —
worker span trees are re-rooted into the parent's — prints the phase
breakdown at exit, and writes trace JSONL to PATH (bare ``--trace``
content-addresses the file next to the artifact store).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from repro import obs
from repro.api import (CellReport, CompareRequest, FlowRequest, LintRequest,
                       SweepRequest, _cell_report, compare,
                       request_field_default, sweep)
from repro.designs import benchmark_suite, generate_design, spec_by_name
from repro.core import Policy
from repro.io import save_rule_assignment, write_wire_report
from repro.runner import FlowRunner, design_ref_fingerprint
from repro.viz import save_clock_svg
from repro.reporting import Table
from repro.tech import default_technology


def _runner(args) -> FlowRunner:
    """The command's flow runner (store per ``--no-cache``)."""
    return FlowRunner(tech=default_technology(),
                      store=not getattr(args, "no_cache", False),
                      jobs=getattr(args, "jobs", 1))


def _report_row(table: Table, cell: CellReport) -> None:
    s = cell.summary
    table.add_row(cell.policy, s["power_uw"], s["wire_cap_ff"],
                  s["skew_ps"], s["worst_delta_ps"], s["skew_3sigma_ps"],
                  int(s["em_violations"]), cell.upgraded_wires,
                  "yes" if cell.feasible else "NO")


def _policy_table(title: str) -> Table:
    return Table(title, ["policy", "P (uW)", "wire fF", "skew ps", "dd ps",
                         "3sig ps", "EM", "upgraded", "feasible"])


def cmd_suite(args) -> int:
    """Print default-rule statistics for the suite (or ``--designs``)."""
    if getattr(args, "designs", ""):
        from repro.runner import expand_design_refs

        names = expand_design_refs(tuple(
            s.strip() for s in args.designs.split(",") if s.strip()))
    else:
        names = tuple(spec.name for spec in benchmark_suite())
    rows = _suite_rows(names, args)
    columns = ["design", "sinks", "die um", "aggr", "clk WL um",
               "latency ps", "skew ps"]
    if args.json:
        print(json.dumps([dict(zip(columns, row)) for row in rows],
                         indent=2, sort_keys=True))
        return 0
    table = Table("Benchmark suite (default-rule routing)", columns)
    for row in rows:
        table.add_row(*row)
    print(table.render())
    return 0


def _suite_row(name: str, store_root) -> tuple:
    """One suite table row (runs in a worker when ``--jobs`` > 1)."""
    from repro.core.flow import build_physical_design
    from repro.io import ArtifactStore

    spec = spec_by_name(name)
    store = ArtifactStore(store_root) if store_root else None
    phys = build_physical_design(generate_design(spec), default_technology(),
                                 store=store)
    timing = phys.refine.timing
    return (spec.name, spec.n_sinks, spec.die_edge, spec.n_aggressors,
            phys.routing.clock_wirelength(), timing.latency, timing.skew)


def _suite_rows(names, args) -> list[tuple]:
    from repro.io import default_cache_dir

    store_root = None if args.no_cache else str(default_cache_dir())
    if args.jobs <= 1:
        return [_suite_row(name, store_root) for name in names]
    from concurrent.futures import ProcessPoolExecutor

    # A forked worker inherits the parent's installed tracer; drop it so
    # suite rows never write spans into the fork's copy.
    with ProcessPoolExecutor(max_workers=min(args.jobs, len(names)),
                             initializer=obs.disable) as pool:
        return list(pool.map(_suite_row, names,
                             [store_root] * len(names)))


def cmd_run(args) -> int:
    """Run one policy on one design; optional rules/report/SVG outputs."""
    request = FlowRequest(design=args.design, policy=args.policy,
                          slack=args.slack)
    policy = Policy(request.policy)
    runner = _runner(args)
    # Ask for the flow only when an output reads it: a plain run is
    # answered from the cell's record.
    verbose = args.verbose and not args.json
    need_flow = bool(args.save_rules or args.wire_report or args.svg
                     or verbose)
    result = runner.run_job(request.job_spec(), return_flow=need_flow)
    flow = result.flow
    cell = _cell_report(result)
    if args.json:
        print(json.dumps(dataclasses.asdict(cell), indent=2, sort_keys=True))
    else:
        table = _policy_table(f"{args.design} under {policy.value}")
        _report_row(table, cell)
        print(table.render())
    if verbose:
        from repro.reporting import analysis_summary

        print()
        print(analysis_summary(flow.analyses, flow.targets,
                               title=f"{args.design} / {policy.value}"))
    if args.save_rules:
        n = save_rule_assignment(flow.physical.routing, args.save_rules,
                                 design_name=flow.design_name)
        if not args.json:
            print(f"saved {n} non-default rules to {args.save_rules}")
    if args.wire_report:
        n = write_wire_report(flow.physical.extraction, args.wire_report)
        if not args.json:
            print(f"wrote {n} wires to {args.wire_report}")
    if args.svg:
        save_clock_svg(flow.physical.tree, flow.physical.routing, args.svg,
                       title=f"{flow.design_name} / {policy.value}",
                       blockages=flow.physical.design.blockages)
        if not args.json:
            print(f"rendered clock tree to {args.svg}")
    return 0 if result.feasible else 1


def cmd_compare(args) -> int:
    """Compare NO/ALL/SMART on one design."""
    request = CompareRequest(design=args.design, slack=args.slack)
    report = compare(request, jobs=args.jobs, store=not args.no_cache)
    if args.json:
        print(json.dumps({
            "design": report.design,
            "slack": report.slack,
            "smart_saving_pct": report.smart_saving_pct,
            "rows": [dataclasses.asdict(cell) for cell in report.cells],
        }, indent=2, sort_keys=True))
        return 0
    table = _policy_table(f"{args.design}: policy comparison "
                          f"(slack {args.slack:.2f})")
    for cell in report.cells:
        _report_row(table, cell)
    print(table.render())
    print(f"smart saves {report.smart_saving_pct:.1f}% vs all-ndr")
    return 0


def cmd_sweep(args) -> int:
    """Sweep the budget slack for the smart policy.

    The all-NDR reference is computed once per design and every slack's
    budgets derive from it — a sweep costs one reference plus one smart
    flow per point, not one reference per point.
    """
    request = SweepRequest(design=args.design,
                           slacks=tuple(float(s)
                                        for s in args.slacks.split(",")))
    report = sweep(request, jobs=args.jobs, store=not args.no_cache)
    if args.json:
        print(json.dumps(dataclasses.asdict(report), indent=2,
                         sort_keys=True))
        return 0
    table = Table(f"{args.design}: budget-slack sweep",
                  ["slack", "P (uW)", "upgraded %", "feasible"])
    for point in report.points:
        table.add_row(point.slack, point.power_uw, point.upgraded_pct,
                      "yes" if point.feasible else "NO")
    print(table.render())
    return 0


def _designs_list(args) -> int:
    """List the corpus registry: every family and its designs."""
    from repro.designs import families, family, spec_fingerprint

    fams = (family(args.family),) if args.family else families()
    rows = [(spec.name, fam.name, spec.generator, spec.n_sinks,
             spec.die_edge, spec_fingerprint(spec)[:12])
            for fam in fams for spec in fam.specs]
    columns = ["design", "family", "generator", "sinks", "die um",
               "content key"]
    if args.json:
        print(json.dumps([dict(zip(columns, row)) for row in rows],
                         indent=2, sort_keys=True))
        return 0
    for fam in fams:
        print(f"{fam.name}: {fam.description}")
    print()
    table = Table("Design corpus", columns)
    for row in rows:
        table.add_row(*row)
    print(table.render())
    return 0


def _designs_show(args) -> int:
    """Show one registered spec: fields, family, content fingerprint."""
    from repro.designs import family_of, spec_by_name, spec_fingerprint, \
        spec_to_dict

    spec = spec_by_name(args.name)
    payload = {"spec": spec_to_dict(spec),
               "family": family_of(spec.name),
               "fingerprint": spec_fingerprint(spec)}
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"{spec.name}  (family {payload['family']})")
    print(f"  fingerprint: {payload['fingerprint']}")
    for key, value in sorted(payload["spec"].items()):
        print(f"  {key}: {value}")
    return 0


def _designs_gen(args) -> int:
    """Generate a corpus design; optionally persist it."""
    from repro.designs import save_deflite
    from repro.io import design_fingerprint, save_design

    design = generate_design(spec_by_name(args.name))
    info = {"design": design.name,
            "sinks": len(design.clock_sinks),
            "aggressors": len(design.signal_nets),
            "blockages": len(design.blockages),
            "fingerprint": design_fingerprint(design)}
    if args.out:
        save_design(design, args.out)
        info["out"] = args.out
    if args.deflite:
        save_deflite(design, args.deflite)
        info["deflite"] = args.deflite
    if args.json:
        print(json.dumps(info, indent=2, sort_keys=True))
    else:
        print(f"{design.name}: {info['sinks']} sinks, "
              f"{info['aggressors']} aggressors, "
              f"{info['blockages']} blockages")
        print(f"  fingerprint: {info['fingerprint']}")
        for key in ("out", "deflite"):
            if key in info:
                print(f"  wrote {key}: {info[key]}")
    return 0


def _designs_import(args) -> int:
    """Validate and build a DEF-lite file; report, optionally persist."""
    from repro.designs import load_deflite, deflite_to_design, \
        validate_deflite
    from repro.io import save_design

    data = load_deflite(args.file)
    report = validate_deflite(data, path=Path(args.file))
    if report.has_errors or args.verbose:
        print(report.render() if not args.json else report.to_json())
    if report.has_errors:
        return 1
    design = deflite_to_design(data, name=args.name or None)
    info = {"design": design.name,
            "sinks": len(design.clock_sinks),
            "aggressors": len(design.signal_nets),
            "blockages": len(design.blockages)}
    if args.out:
        save_design(design, args.out)
        info["out"] = args.out
    if args.json:
        print(json.dumps(info, indent=2, sort_keys=True))
    else:
        print(f"imported {design.name}: {info['sinks']} sinks, "
              f"{info['aggressors']} aggressors, "
              f"{info['blockages']} blockages"
              + (f" -> {args.out}" if args.out else ""))
    return 0


def _designs_validate(args) -> int:
    """Validate corpus refs: DEF-lite checks for files, build for names."""
    from repro.designs import validate_deflite
    from repro.runner import expand_design_refs

    failures = 0
    for ref in expand_design_refs(tuple(args.refs)):
        if ref.endswith(".json"):
            report = validate_deflite(ref)
            status = "ERROR" if report.has_errors else "ok"
            if report.has_errors or args.verbose:
                print(report.render())
            print(f"{ref}: {status}")
            failures += int(report.has_errors)
            continue
        try:
            design = generate_design(spec_by_name(ref))
        except Exception as exc:  # noqa: BLE001 - reported per ref
            print(f"{ref}: ERROR {type(exc).__name__}: {exc}")
            failures += 1
        else:
            print(f"{ref}: ok ({len(design.clock_sinks)} sinks)")
    return 1 if failures else 0


def cmd_designs(args) -> int:
    """Dispatch the ``repro designs`` corpus subcommands."""
    handler = {
        "list": _designs_list,
        "show": _designs_show,
        "gen": _designs_gen,
        "import": _designs_import,
        "validate": _designs_validate,
    }[args.designs_command]
    return handler(args)


def cmd_lint(args) -> int:
    """Run the static verifier on a flow; exit 1 on any ERROR diagnostic.

    Unlike ``run``/``compare``, budgets come straight from the
    period-derived spec (no all-NDR reference run) — the linter checks
    structural coherence, not quality-of-result, so the cheap targets
    are enough to drive the flow under inspection.

    ``--static`` analyzes the *source* instead of a flow: the
    whole-program determinism / cache-soundness checker
    (:mod:`repro.analysis`) over the installed package or a package
    root given as a positional path (``repro lint --static src/repro``).
    """
    from repro.api import lint
    from repro.verify import registered_checks

    if args.list_checks:
        import repro.analysis  # registers the static D/C checks

        for check in registered_checks():
            print(f"{check.rule:22s} [{check.kind:6s}] {check.doc}")
        return 0
    if args.static:
        codes = tuple(c.strip() for c in args.codes.split(",") if c.strip())
        try:
            report = lint(LintRequest(static=True,
                                      paths=tuple(args.paths or ()),
                                      codes=codes))
        except KeyError as exc:
            print(f"lint: {exc.args[0]}", file=sys.stderr)
            return 2
    else:
        if args.codes:
            print("lint: --codes requires --static", file=sys.stderr)
            return 2
        if not args.design:
            print("lint: --design is required (or use --list-checks/"
                  "--static)", file=sys.stderr)
            return 2
        kinds = ()
        if args.checks != "all":
            kinds = tuple(k.strip() for k in args.checks.split(",")
                          if k.strip())
        report = lint(LintRequest(design=args.design, policy=args.policy,
                                  kinds=kinds))
    if args.json:
        print(report.to_json())
    else:
        print(report.render())
    return 1 if report.has_errors else 0


def cmd_trace(args) -> int:
    """Render a trace JSONL file; exit 2 on a malformed trace."""
    from repro.api import trace_report
    from repro.obs.export import TraceSchemaError, load_trace

    try:
        if args.json:
            trace = load_trace(args.file)
            print(json.dumps({"meta": trace.meta,
                              "phase_totals": trace.phase_totals(),
                              "metrics": trace.metrics},
                             indent=2, sort_keys=True))
        else:
            print(trace_report(args.file, top=args.top))
    except (OSError, TraceSchemaError) as exc:
        print(f"trace: {exc}", file=sys.stderr)
        return 2
    return 0


async def _serve_main(config) -> int:
    """Boot the daemon, wire signals, serve until shutdown."""
    import asyncio
    import signal

    from repro.serve import ServeDaemon

    daemon = ServeDaemon(config)
    await daemon.start()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(sig, daemon.request_shutdown)
    print(f"repro serve: listening on http://{config.host}:{daemon.port} "
          f"({config.workers} workers, store {daemon.store.root})",
          file=sys.stderr)
    await daemon.run_until_shutdown()
    print("repro serve: shut down cleanly", file=sys.stderr)
    return 0


def cmd_serve(args) -> int:
    """Run the batching/dedup flow-service daemon (``docs/SERVICE.md``)."""
    import asyncio

    from repro.serve import ServeConfig

    config = ServeConfig(
        host=args.host, port=args.port, workers=args.workers,
        store_root=args.store or None,
        max_store_bytes=args.max_store_bytes,
        warm=not args.no_warm)
    return asyncio.run(_serve_main(config))


def cmd_store(args) -> int:
    """Inspect or garbage-collect the shared artifact cache tier."""
    from repro.io import ArtifactStore, default_cache_max_bytes

    store = ArtifactStore(args.store or None)
    if args.store_command == "gc":
        max_bytes = (args.max_bytes if args.max_bytes is not None
                     else default_cache_max_bytes())
        if max_bytes is None:
            print("store gc: no budget (pass --max-bytes or set "
                  "$REPRO_CACHE_MAX_BYTES); reporting only",
                  file=sys.stderr)
        swept = store.gc(max_bytes=max_bytes)
        payload = {"root": str(store.root), **swept}
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(f"{store.root}: evicted {swept['evicted']} artifacts "
                  f"({swept['evicted_bytes']} bytes), "
                  f"{swept['kept_bytes']} bytes kept")
        return 0
    payload = {"root": str(store.root), **store.stats()}
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"artifact store at {store.root}")
        for key, value in sorted(payload.items()):
            if key != "root":
                print(f"  {key}: {value}")
    return 0


def add_common_opts(p) -> None:
    """The options every subcommand shares.

    Defaults are ``SUPPRESS`` so a subcommand-level flag overrides the
    parser-wide ``set_defaults`` values without clobbering the
    top-level spelling (``repro --no-cache compare ...`` still works).
    """
    p.add_argument("--jobs", type=int, default=argparse.SUPPRESS,
                   metavar="N",
                   help="worker processes for flow cells (default 1)")
    p.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                   help="emit the result as JSON")
    p.add_argument("--no-cache", action="store_true",
                   default=argparse.SUPPRESS,
                   help="disable the content-addressed artifact store")
    p.add_argument("--trace", nargs="?", const="", default=argparse.SUPPRESS,
                   metavar="PATH",
                   help="record an obs trace; print the phase breakdown and "
                        "write trace JSONL to PATH (bare --trace "
                        "content-addresses it next to the artifact store)")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Smart non-default clock routing flows")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the content-addressed artifact store")
    parser.set_defaults(jobs=1, json=False, trace=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p_suite = sub.add_parser("suite", help="print benchmark suite statistics")
    p_suite.add_argument("--designs", default="",
                         help="comma-separated corpus selectors (names, "
                              "globs, family:NAME); default: the Table-1 "
                              "suite")
    add_common_opts(p_suite)

    p_designs = sub.add_parser(
        "designs", help="inspect and build the design corpus")
    dsub = p_designs.add_subparsers(dest="designs_command", required=True)
    d_list = dsub.add_parser("list", help="list registered families/designs")
    d_list.add_argument("--family", default="",
                        help="restrict to one family")
    add_common_opts(d_list)
    d_show = dsub.add_parser("show", help="show one registered spec")
    d_show.add_argument("name", help="registered design name")
    add_common_opts(d_show)
    d_gen = dsub.add_parser("gen", help="generate a corpus design")
    d_gen.add_argument("name", help="registered design name")
    d_gen.add_argument("--out", default="",
                       help="write the design JSON to this path")
    d_gen.add_argument("--deflite", default="",
                       help="write a DEF-lite export to this path")
    add_common_opts(d_gen)
    d_imp = dsub.add_parser("import", help="validate + build a DEF-lite file")
    d_imp.add_argument("file", help="DEF-lite JSON path")
    d_imp.add_argument("--name", default="",
                       help="override the imported design name")
    d_imp.add_argument("--out", default="",
                       help="write the built design JSON to this path")
    d_imp.add_argument("--verbose", action="store_true",
                       help="print the validation report even when clean")
    add_common_opts(d_imp)
    d_val = dsub.add_parser(
        "validate", help="validate corpus refs (names, selectors, DEF-lite)")
    d_val.add_argument("refs", nargs="+",
                       help="design names, selectors, or DEF-lite paths")
    d_val.add_argument("--verbose", action="store_true",
                       help="print clean validation reports too")
    add_common_opts(d_val)

    p_run = sub.add_parser("run", help="run one policy on one design")
    p_run.add_argument("--design", required=True,
                       help="benchmark name or design JSON path")
    p_run.add_argument("--policy",
                       default=request_field_default(FlowRequest, "policy"),
                       choices=[p.value for p in Policy])
    p_run.add_argument("--slack", type=float,
                       default=request_field_default(FlowRequest, "slack"),
                       help="budget slack over the all-NDR reference")
    p_run.add_argument("--save-rules", default="",
                       help="write the rule assignment to this JSON path")
    p_run.add_argument("--wire-report", default="",
                       help="write a per-wire report to this path")
    p_run.add_argument("--svg", default="",
                       help="render the routed clock tree to this SVG path")
    p_run.add_argument("--verbose", action="store_true",
                       help="print the full signoff-style summary")
    add_common_opts(p_run)

    p_cmp = sub.add_parser("compare", help="compare policies on one design")
    p_cmp.add_argument("--design", required=True)
    p_cmp.add_argument("--slack", type=float,
                       default=request_field_default(CompareRequest, "slack"))
    add_common_opts(p_cmp)

    p_sweep = sub.add_parser("sweep", help="sweep budget slack (smart policy)")
    p_sweep.add_argument("--design", required=True)
    p_sweep.add_argument(
        "--slacks",
        default=",".join(str(s) for s in
                         request_field_default(SweepRequest, "slacks")),
        help="comma-separated slack values")
    add_common_opts(p_sweep)

    p_lint = sub.add_parser(
        "lint", help="run the static DRC/ERC + engine-oracle verifier")
    p_lint.add_argument("--design", default="",
                        help="benchmark name or design JSON path")
    p_lint.add_argument("--policy",
                        default=request_field_default(LintRequest, "policy"),
                        choices=[p.value for p in Policy])
    p_lint.add_argument("--checks", default="all",
                        help="comma-separated check kinds (drc,oracle) "
                             "or 'all'")
    p_lint.add_argument("--list-checks", action="store_true",
                        help="list registered checks and exit")
    p_lint.add_argument("--codes", default="",
                        help="with --static: comma-separated fnmatch "
                             "patterns over rule ids (e.g. 'Q*' for the "
                             "dimension family, 'Q*,U*' for all unit rules)")
    p_lint.add_argument("--static", action="store_true",
                        help="run the whole-program determinism / "
                             "cache-soundness analyzer instead of a flow")
    p_lint.add_argument("paths", nargs="*",
                        help="package root for --static "
                             "(default: the installed repro package)")
    add_common_opts(p_lint)

    p_trace = sub.add_parser(
        "trace", help="render a recorded trace JSONL file")
    p_trace.add_argument("file", help="trace JSONL path (from --trace)")
    p_trace.add_argument("--top", type=int, default=10,
                         help="critical-path depth (default 10)")
    add_common_opts(p_trace)

    p_serve = sub.add_parser(
        "serve", help="run the batching/dedup flow-service daemon")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8787,
                         help="bind port; 0 picks an ephemeral one")
    p_serve.add_argument("--workers", type=int, default=2,
                         help="persistent worker processes (default 2)")
    p_serve.add_argument("--store", default="",
                         help="artifact store root shared with workers "
                              "(default: the per-user cache)")
    p_serve.add_argument("--max-store-bytes", type=int, default=None,
                         metavar="N",
                         help="LRU disk budget for the store "
                              "(default: $REPRO_CACHE_MAX_BYTES)")
    p_serve.add_argument("--no-warm", action="store_true",
                         help="skip pre-spawning workers at startup")
    add_common_opts(p_serve)

    p_store = sub.add_parser(
        "store", help="inspect or GC the shared artifact cache")
    ssub = p_store.add_subparsers(dest="store_command", required=True)
    s_stats = ssub.add_parser("stats", help="print cache-tier counters")
    s_stats.add_argument("--store", default="",
                         help="store root (default: the per-user cache)")
    add_common_opts(s_stats)
    s_gc = ssub.add_parser("gc", help="LRU-evict disk entries to a budget")
    s_gc.add_argument("--store", default="",
                      help="store root (default: the per-user cache)")
    s_gc.add_argument("--max-bytes", type=int, default=None, metavar="N",
                      help="byte budget (default: $REPRO_CACHE_MAX_BYTES)")
    add_common_opts(s_gc)
    return parser


def _finish_trace(tracer: obs.Tracer, args) -> None:
    """Print the breakdown and write the trace file at CLI exit."""
    from repro.obs.export import export_jsonl
    from repro.obs.report import metrics_table, phase_breakdown

    print()
    print(phase_breakdown(tracer).render())
    if len(tracer.metrics):
        print()
        print(metrics_table(tracer).render())
    out = None
    if args.trace:
        out = export_jsonl(tracer, path=args.trace)
    elif not args.no_cache:
        from repro.io import default_cache_dir

        out = export_jsonl(tracer,
                           directory=Path(default_cache_dir()) / "traces")
    if out is not None:
        print(f"trace written to {out}", file=sys.stderr)


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    design = getattr(args, "design", "")
    try:
        # Hashing a reference fails as resolving it would: KeyError for
        # an unknown corpus name, OSError for an unreadable file.
        if design:
            design_ref_fingerprint(design)
    except (KeyError, OSError) as exc:
        reason = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"repro {args.command}: cannot resolve design '{design}': "
              f"{reason}", file=sys.stderr)
        return 2
    handler = {
        "suite": cmd_suite,
        "run": cmd_run,
        "compare": cmd_compare,
        "sweep": cmd_sweep,
        "designs": cmd_designs,
        "lint": cmd_lint,
        "trace": cmd_trace,
        "serve": cmd_serve,
        "store": cmd_store,
    }[args.command]
    if args.trace is None:
        return handler(args)
    tracer = obs.enable(f"repro.{args.command}")
    try:
        with obs.span(f"cli.{args.command}"):
            return handler(args)
    finally:
        _finish_trace(tracer, args)
        obs.disable()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
