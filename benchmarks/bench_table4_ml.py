"""Table 4 — Classifier quality and the ML-vs-greedy power gap.

The guide trains on the greedy optimizer's decisions on the three
smallest designs and is evaluated on the larger ones:

* **label agreement** — how often the classifier predicts the same rule
  the greedy teacher would choose on the held-out design;
* **upgrade precision/recall** — on the binary "did the wire get any
  NDR" question;
* **power gap** — ML-guided power relative to greedy-smart power.

Expected shape: agreement well above the majority-class baseline,
recall high (missing a needed NDR is what the repair pass must fix),
power gap a few percent.
"""

from __future__ import annotations

import numpy as np

from conftest import ML_TRAIN_DESIGNS, emit
from repro.designs import generate_design, spec_by_name
from repro.core import Policy
from repro.core.flow import build_physical_design
from repro.core.mlguide import RULE_CLASSES
from repro.ml.metrics import accuracy, precision, recall
from repro.reporting import Table

EVAL_DESIGNS = ("ckt512", "ckt1024")


def _teacher_labels(matrix, name):
    """(wire id -> rule name) chosen by the greedy optimizer."""
    flow = matrix.flow(name, Policy.SMART)
    routing = flow.physical.routing
    return {w.wire_id: w.rule.name.value for w in routing.clock_wires}


def _build_table(matrix) -> Table:
    guide = matrix.guide()
    table = Table(
        "Table 4: ML guide vs greedy teacher "
        f"(trained on {', '.join(ML_TRAIN_DESIGNS)})",
        ["eval design", "wires", "agreement", "upgrade prec", "upgrade rec",
         "greedy P (uW)", "ml P (uW)", "gap %", "ml feas"])
    for name in EVAL_DESIGNS:
        teacher = _teacher_labels(matrix, name)
        ml_flow = matrix.flow(name, Policy.SMART_ML)
        greedy_flow = matrix.flow(name, Policy.SMART)

        # The guide predicts on the default-rule build, as in a flow.
        build = build_physical_design(generate_design(spec_by_name(name)),
                                      matrix.tech, store=matrix.runner.store)
        predictions = guide.predict_rules(build)

        common = sorted(set(teacher) & set(predictions))
        label_of = {r: i for i, r in enumerate(RULE_CLASSES)}
        y_true = np.array([label_of[teacher[w]] for w in common])
        y_pred = np.array([label_of[predictions[w]] for w in common])
        up_true = (y_true > 0).astype(int)
        up_pred = (y_pred > 0).astype(int)

        p_greedy = greedy_flow.clock_power
        p_ml = ml_flow.clock_power
        table.add_row(
            name,
            len(common),
            accuracy(y_true, y_pred),
            precision(up_true, up_pred),
            recall(up_true, up_pred),
            p_greedy,
            p_ml,
            100.0 * (p_ml - p_greedy) / p_greedy,
            "yes" if ml_flow.feasible else "NO",
        )
    return table


def test_table4_ml_guide_quality(benchmark, capsys, matrix):
    table = benchmark.pedantic(_build_table, args=(matrix,),
                               rounds=1, iterations=1)
    emit(capsys, table.render())
    for row in table.rows:
        agreement = float(row[2])
        assert agreement > 0.6  # far above chance over 5 classes
        assert row[8] == "yes"  # repair pass guarantees feasibility
