"""repro: Smart non-default routing for clock power reduction.

A from-scratch reproduction of the DAC 2013 paper by Kahng, Kang and
Lee: selective assignment of non-default routing rules (width/spacing
upgrades) to clock wires, so the clock network gets (nearly) the
robustness of uniformly NDR-routed clocks at (nearly) the power of
default routing.

The library contains the full physical-design substrate the flow needs:
technology modeling, clock tree synthesis, track routing, RC extraction,
Elmore/crosstalk/Monte-Carlo timing, EM checks, and a power model — see
``DESIGN.md`` for the inventory.

Quickstart (the supported surface is :mod:`repro.api`)::

    from repro.api import CompareRequest, compare

    report = compare(CompareRequest(design="ckt64"))
    print(f"smart saves {report.smart_saving_pct:.1f}% vs all-ndr")
"""

from repro import api
from repro.api import CompareReport, SweepReport, compare, sweep, trace_report
from repro.designs import (DesignFamily, DesignSpec, benchmark_suite,
                           families, generate_design, resolve_selectors,
                           spec_by_name, spec_fingerprint)
from repro.core import (FlowResult, OptimizeResult, Policy,
                        RobustnessTargets, SmartNdrOptimizer,
                        build_physical_design, run_flow)
from repro.core.evaluation import AnalysisBundle, analyze_all, targets_from_reference
from repro.netlist import Design
from repro.tech import (RoutingRule, RuleName, RULE_SET, Technology,
                        default_technology, rule_by_name)

__version__ = "4.0.0"

__all__ = [
    "api",
    "CompareReport",
    "SweepReport",
    "compare",
    "sweep",
    "trace_report",
    "DesignFamily",
    "DesignSpec",
    "benchmark_suite",
    "families",
    "generate_design",
    "resolve_selectors",
    "spec_by_name",
    "spec_fingerprint",
    "FlowResult",
    "OptimizeResult",
    "Policy",
    "RobustnessTargets",
    "SmartNdrOptimizer",
    "build_physical_design",
    "run_flow",
    "AnalysisBundle",
    "analyze_all",
    "targets_from_reference",
    "Design",
    "RoutingRule",
    "RuleName",
    "RULE_SET",
    "Technology",
    "default_technology",
    "rule_by_name",
    "__version__",
]
