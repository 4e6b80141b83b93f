"""DEF-lite JSON import: externally-described floorplans.

The DEF-lite schema is the exchange format for bringing real designs
into the corpus without a full DEF/LEF parser: a die box, the clock
(period + source), sink pins, hard blockages, and aggressor nets with
switching activities (optionally windows).  Everything is plain JSON in
um/ps/fF.

Schema validation runs the :data:`IMPORT_CHECKS` family through the
verifier's shared runner (:mod:`repro.verify.registry`): each rule
yields typed :class:`~repro.verify.diagnostics.Diagnostic` records, so
``repro designs validate`` renders findings exactly like ``repro
lint``, and :func:`import_design` raises
:class:`~repro.verify.diagnostics.VerificationError` when any check
reports an ERROR.

Example document::

    {
      "deflite": 1,
      "name": "uart_top",
      "die": [0.0, 0.0, 300.0, 300.0],
      "clock": {"period_ps": 1000.0, "source_xy": [150.0, 0.0]},
      "pins": [{"name": "u0_ff1", "xy": [12.5, 40.0], "cap_ff": 1.8}],
      "blockages": [[50.0, 50.0, 110.0, 110.0]],
      "aggressors": [
        {"name": "bus0", "activity": 0.30,
         "driver_xy": [20.0, 20.0],
         "sink_xys": [[30.0, 25.0], [18.0, 40.0]],
         "load_ff": 1.2,
         "window_ps": [100.0, 400.0]}
      ]
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Optional, Union

from repro.geom.point import Point
from repro.geom.rect import Rect
from repro.netlist.cell import CellKind, PinDirection
from repro.netlist.design import Design
from repro.netlist.net import NetKind
from repro.verify.diagnostics import (Diagnostic, Severity,
                                      VerificationError, VerifyReport)
from repro.verify.registry import Check, run_family

#: Supported DEF-lite schema version.
DEFLITE_SCHEMA = 1

#: Default aggressor sink pin load when the document omits ``load_ff``.
DEFAULT_LOAD_FF = 1.2


@dataclass(frozen=True)
class ImportContext:
    """What the import checks inspect: the parsed document."""

    data: dict[str, Any]
    path: Optional[Path] = None


def _is_xy(value: Any) -> bool:
    return (isinstance(value, (list, tuple)) and len(value) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                    for v in value))


def _is_box(value: Any) -> bool:
    return (isinstance(value, (list, tuple)) and len(value) == 4
            and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                    for v in value))


def check_deflite_schema(ctx: ImportContext) -> Iterator[Diagnostic]:
    """DEF-lite document structure: version, required keys, field types."""
    data = ctx.data
    version = data.get("deflite")
    if version != DEFLITE_SCHEMA:
        yield Diagnostic(rule="import-schema", severity=Severity.ERROR,
                         message=f"unsupported deflite schema {version!r} "
                                 f"(expected {DEFLITE_SCHEMA})",
                         hint='the document must carry "deflite": 1')
        return
    if not isinstance(data.get("name"), str) or not data.get("name"):
        yield Diagnostic(rule="import-schema", severity=Severity.ERROR,
                         message='"name" must be a non-empty string')
    if not _is_box(data.get("die")):
        yield Diagnostic(rule="import-schema", severity=Severity.ERROR,
                         message='"die" must be [xlo, ylo, xhi, yhi] in um')
    clock = data.get("clock")
    if not isinstance(clock, dict) or not _is_xy(clock.get("source_xy")) \
            or not isinstance(clock.get("period_ps"), (int, float)):
        yield Diagnostic(rule="import-schema", severity=Severity.ERROR,
                         message='"clock" must carry "period_ps" and '
                                 '"source_xy"')
    pins = data.get("pins")
    if not isinstance(pins, list) or not pins:
        yield Diagnostic(rule="import-schema", severity=Severity.ERROR,
                         message='"pins" must be a non-empty list of sink '
                                 'pins')
        pins = []
    for i, pin in enumerate(pins):
        if not isinstance(pin, dict) or not isinstance(pin.get("name"), str) \
                or not _is_xy(pin.get("xy")):
            yield Diagnostic(rule="import-schema", severity=Severity.ERROR,
                             obj=f"pins[{i}]",
                             message='each pin needs "name" and "xy"')
    for i, box in enumerate(data.get("blockages", [])):
        if not _is_box(box):
            yield Diagnostic(rule="import-schema", severity=Severity.ERROR,
                             obj=f"blockages[{i}]",
                             message="each blockage must be "
                                     "[xlo, ylo, xhi, yhi]")
    for i, agg in enumerate(data.get("aggressors", [])):
        if not isinstance(agg, dict) \
                or not isinstance(agg.get("name"), str) \
                or not _is_xy(agg.get("driver_xy")) \
                or not isinstance(agg.get("sink_xys"), list) \
                or not agg.get("sink_xys") \
                or not all(_is_xy(xy) for xy in agg["sink_xys"]):
            yield Diagnostic(rule="import-schema", severity=Severity.ERROR,
                             obj=f"aggressors[{i}]",
                             message='each aggressor needs "name", '
                                     '"driver_xy" and non-empty "sink_xys"')


def check_deflite_geometry(ctx: ImportContext) -> Iterator[Diagnostic]:
    """Geometric sanity: everything on the die, nothing inside a macro."""
    data = ctx.data
    if not _is_box(data.get("die")):
        return  # import-schema already reported it
    die = Rect(*data["die"])
    if die.xhi <= die.xlo or die.yhi <= die.ylo:
        yield Diagnostic(rule="import-geometry", severity=Severity.ERROR,
                         message=f"die box {data['die']} is degenerate")
        return
    blockages = [Rect(*b) for b in data.get("blockages", [])
                 if _is_box(b)]

    def on_die(xy: Any) -> bool:
        return die.contains(Point(float(xy[0]), float(xy[1])))

    def in_macro(xy: Any) -> bool:
        p = Point(float(xy[0]), float(xy[1]))
        return any(b.contains(p) for b in blockages)

    clock = data.get("clock", {})
    if isinstance(clock, dict) and _is_xy(clock.get("source_xy")) \
            and not on_die(clock["source_xy"]):
        yield Diagnostic(rule="import-geometry", severity=Severity.ERROR,
                         message="clock source is outside the die")
    for i, box in enumerate(data.get("blockages", [])):
        if _is_box(box):
            rect = Rect(*box)
            if not (die.contains(Point(rect.xlo, rect.ylo))
                    and die.contains(Point(rect.xhi, rect.yhi))):
                yield Diagnostic(rule="import-geometry",
                                 severity=Severity.ERROR,
                                 obj=f"blockages[{i}]",
                                 message="blockage extends outside the die")
    for i, pin in enumerate(data.get("pins", [])):
        if not isinstance(pin, dict) or not _is_xy(pin.get("xy")):
            continue
        if not on_die(pin["xy"]):
            yield Diagnostic(rule="import-geometry", severity=Severity.ERROR,
                             obj=f"pins[{i}]",
                             message=f"pin {pin.get('name')!r} is outside "
                                     f"the die")
        elif in_macro(pin["xy"]):
            yield Diagnostic(rule="import-geometry", severity=Severity.ERROR,
                             obj=f"pins[{i}]",
                             message=f"pin {pin.get('name')!r} sits inside "
                                     f"a blockage")
    for i, agg in enumerate(data.get("aggressors", [])):
        if not isinstance(agg, dict):
            continue
        for label, xys in (("driver", [agg.get("driver_xy")]),
                           ("sink", agg.get("sink_xys", []))):
            if not isinstance(xys, list):
                continue
            for xy in xys:
                if _is_xy(xy) and (not on_die(xy) or in_macro(xy)):
                    yield Diagnostic(rule="import-geometry",
                                     severity=Severity.ERROR,
                                     obj=f"aggressors[{i}]",
                                     message=f"{label} pin of "
                                             f"{agg.get('name')!r} is off-die "
                                             f"or inside a blockage")


def check_deflite_electrical(ctx: ImportContext) -> Iterator[Diagnostic]:
    """Electrical sanity: caps, period, activities, switching windows."""
    data = ctx.data
    clock = data.get("clock", {})
    period = clock.get("period_ps") if isinstance(clock, dict) else None
    if isinstance(period, (int, float)) and period <= 0:
        yield Diagnostic(rule="import-electrical", severity=Severity.ERROR,
                         message=f"clock period {period} ps must be positive")
    for i, pin in enumerate(data.get("pins", [])):
        if isinstance(pin, dict) and "cap_ff" in pin:
            cap = pin["cap_ff"]
            if not isinstance(cap, (int, float)) or cap <= 0:
                yield Diagnostic(rule="import-electrical",
                                 severity=Severity.ERROR,
                                 obj=f"pins[{i}]",
                                 message=f"pin cap {cap!r} fF must be a "
                                         f"positive number")
    for i, agg in enumerate(data.get("aggressors", [])):
        if not isinstance(agg, dict):
            continue
        activity = agg.get("activity")
        if not isinstance(activity, (int, float)) \
                or not 0.0 <= float(activity) <= 1.0:
            yield Diagnostic(rule="import-electrical",
                             severity=Severity.ERROR,
                             obj=f"aggressors[{i}]",
                             message=f"activity {activity!r} must be in "
                                     f"[0, 1]")
        window = agg.get("window_ps")
        if window is not None:
            bad = (not isinstance(window, (list, tuple)) or len(window) != 2
                   or not all(isinstance(v, (int, float)) for v in window)
                   or window[0] < 0 or window[1] <= window[0])
            if bad:
                yield Diagnostic(rule="import-electrical",
                                 severity=Severity.ERROR,
                                 obj=f"aggressors[{i}]",
                                 message=f"window {window!r} must be "
                                         f"[start, end] with start < end")
            elif isinstance(period, (int, float)) and window[1] > period:
                yield Diagnostic(rule="import-electrical",
                                 severity=Severity.WARN,
                                 obj=f"aggressors[{i}]",
                                 message=f"window {window!r} extends past "
                                         f"the clock period ({period} ps)")


def check_deflite_names(ctx: ImportContext) -> Iterator[Diagnostic]:
    """Name uniqueness: duplicate pins or nets would collide on import."""
    data = ctx.data
    seen: set[str] = set()
    for i, pin in enumerate(data.get("pins", [])):
        name = pin.get("name") if isinstance(pin, dict) else None
        if isinstance(name, str):
            if name in seen:
                yield Diagnostic(rule="import-names", severity=Severity.ERROR,
                                 obj=f"pins[{i}]",
                                 message=f"duplicate pin name {name!r}")
            seen.add(name)
    nets: set[str] = set()
    for i, agg in enumerate(data.get("aggressors", [])):
        name = agg.get("name") if isinstance(agg, dict) else None
        if isinstance(name, str):
            if name in nets:
                yield Diagnostic(rule="import-names", severity=Severity.ERROR,
                                 obj=f"aggressors[{i}]",
                                 message=f"duplicate aggressor net {name!r}")
            nets.add(name)


#: The DEF-lite document checks :func:`validate_deflite` runs.
IMPORT_CHECKS: tuple[Check[ImportContext], ...] = (
    Check("import-schema", "import", check_deflite_schema),
    Check("import-geometry", "import", check_deflite_geometry),
    Check("import-electrical", "import", check_deflite_electrical),
    Check("import-names", "import", check_deflite_names),
)


def load_deflite(path: Union[str, Path]) -> dict[str, Any]:
    """Parse a DEF-lite JSON file (malformed JSON raises ValueError)."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: top level must be a JSON object")
    return data


def validate_deflite(data: Union[dict[str, Any], str, Path],
                     path: Optional[Path] = None) -> VerifyReport:
    """Run every import check over a document (or file)."""
    if not isinstance(data, dict):
        path = Path(data)
        data = load_deflite(path)
    return run_family(ImportContext(data=data, path=path), IMPORT_CHECKS)


def deflite_to_design(data: dict[str, Any],
                      name: Optional[str] = None) -> Design:
    """Build a validated document into a placed design."""
    design = Design(name=name or str(data["name"]), die=Rect(*data["die"]),
                    clock_period=float(data["clock"]["period_ps"]))
    source = data["clock"]["source_xy"]
    design.add_clock_source(Point(float(source[0]), float(source[1])))
    for box in data.get("blockages", []):
        design.add_blockage(Rect(*[float(v) for v in box]))
    for pin in data["pins"]:
        design.add_flop(str(pin["name"]),
                        Point(float(pin["xy"][0]), float(pin["xy"][1])),
                        clock_pin_cap=float(pin.get("cap_ff", 1.8)))
    for agg in data.get("aggressors", []):
        net_name = str(agg["name"])
        load = float(agg.get("load_ff", DEFAULT_LOAD_FF))
        driver_inst = design.add_instance(
            f"{net_name}_drv", CellKind.GATE,
            Point(float(agg["driver_xy"][0]), float(agg["driver_xy"][1])),
            cell_name="INV")
        net = design.add_net(net_name, NetKind.SIGNAL,
                             activity=float(agg["activity"]))
        window = agg.get("window_ps")
        if window is not None:
            net.window = (float(window[0]), float(window[1]))
        net.connect_driver(driver_inst.add_pin("Z", PinDirection.OUTPUT))
        for k, xy in enumerate(agg["sink_xys"]):
            sink_inst = design.add_instance(
                f"{net_name}_snk{k}", CellKind.GATE,
                Point(float(xy[0]), float(xy[1])), cell_name="INV")
            net.connect_sink(sink_inst.add_pin("A", PinDirection.INPUT,
                                               cap=load))
    design.validate()
    return design


def import_design(path: Union[str, Path],
                  name: Optional[str] = None) -> Design:
    """Validate and build a DEF-lite file; ERROR diagnostics raise."""
    data = load_deflite(path)
    report = validate_deflite(data, path=Path(path))
    if report.has_errors:
        raise VerificationError(report, f"import:{path}")
    return deflite_to_design(data, name=name)


def design_to_deflite(design: Design) -> dict[str, Any]:
    """Export a design to a DEF-lite document (import round-trips)."""
    design.validate()
    aggressors = []
    for net in design.signal_nets:
        assert net.driver is not None
        entry: dict[str, Any] = {
            "name": net.name,
            "activity": net.activity,
            "driver_xy": [net.driver.location.x, net.driver.location.y],
            "sink_xys": [[p.location.x, p.location.y] for p in net.sinks],
        }
        loads = {p.cap for p in net.sinks}
        if loads and loads != {DEFAULT_LOAD_FF}:
            entry["load_ff"] = sorted(loads)[0]
        window = getattr(net, "window", None)
        if window is not None:
            entry["window_ps"] = [window[0], window[1]]
        aggressors.append(entry)
    assert design.clock_root is not None
    return {
        "deflite": DEFLITE_SCHEMA,
        "name": design.name,
        "die": [design.die.xlo, design.die.ylo,
                design.die.xhi, design.die.yhi],
        "clock": {"period_ps": design.clock_period,
                  "source_xy": [design.clock_root.location.x,
                                design.clock_root.location.y]},
        "pins": [{"name": pin.instance.name,
                  "xy": [pin.location.x, pin.location.y],
                  "cap_ff": pin.cap}
                 for pin in design.clock_sinks],
        "blockages": [[b.xlo, b.ylo, b.xhi, b.yhi]
                      for b in design.blockages],
        "aggressors": aggressors,
    }


def save_deflite(design: Design, path: Union[str, Path]) -> None:
    """Write a design as a DEF-lite JSON file."""
    Path(path).write_text(json.dumps(design_to_deflite(design), indent=1))
