"""Classifier-guided rule assignment (the "smart" predictive variant).

The greedy optimizer makes good decisions but pays for them in repeated
extraction/analysis loops.  The guide learns those decisions offline:

1. **Training**: run the greedy optimizer on (small) training designs;
   record every clock wire's *default-state* features
   (:mod:`repro.core.features`) and the rule the optimizer finally gave
   it.
2. **Inference**: on a new design, predict each wire's rule directly
   from its features, stamp the predictions, then run a short repair
   pass (the greedy planner with a low iteration cap) to mop up any
   residual constraint violations the classifier missed.

Both sides run the flow's own stages (:mod:`repro.core.stages`): the
teacher is ``build`` followed by the ``policy`` stage under ``SMART``,
and inference reads the build's own extraction, then patches it
incrementally once the predictions are stamped.

The classifier is the from-scratch random forest in :mod:`repro.ml`;
labels are the four rules.  Because features are computed at the
default-rule state, training and inference see identical
distributions.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from repro.core.features import WIRE_FEATURE_NAMES, wire_feature_matrix
from repro.core.flow import PhysicalDesign
from repro.core.optimizer import OptimizeResult, SmartNdrOptimizer
from repro.core.policies import Policy
from repro.core.stages import PolicyParams, build_stage, policy_stage
from repro.core.targets import RobustnessTargets
from repro.extract.extractor import incremental_re_extract
from repro.ml.forest import RandomForestClassifier
from repro.ml.metrics import accuracy
from repro.netlist.design import Design
from repro.reliability.em import DEFAULT_EM_FACTOR, analyze_em
from repro.tech.ndr import RULE_SET, rule_by_name
from repro.tech.technology import Technology, default_technology

#: Label index per rule name (classifier classes).
RULE_CLASSES: tuple[str, ...] = tuple(rule.name.value for rule in RULE_SET)

#: Iteration cap of the greedy repair pass after the stamped predictions.
REPAIR_ITERATIONS = 2


def _wire_features(physical: PhysicalDesign) -> tuple[list[int], np.ndarray]:
    """``(wire_ids, X)`` of every clock wire in ``physical``'s extraction."""
    extraction = physical.extraction
    em = analyze_em(extraction.network, physical.routing, physical.tech.vdd,
                    physical.design.clock_freq, em_factor=DEFAULT_EM_FACTOR)
    return wire_feature_matrix(physical.tree, extraction, em)


def collect_teacher_samples(design: Design, tech: Technology,
                            targets: RobustnessTargets,
                            store=None) -> tuple[np.ndarray, np.ndarray]:
    """Run the greedy teacher on one design; return (X, y).

    Features are computed at the default-rule state (before the
    optimizer touches rules), labels are the rules the optimizer
    finally assigned.  With ``store`` the default-rule build comes from
    the content-addressed artifact cache.
    """
    physical = build_stage(design, tech, store=store)
    wire_ids, X = _wire_features(physical)
    policy_stage(physical, targets, PolicyParams(policy=Policy.SMART))
    label_of = {name: i for i, name in enumerate(RULE_CLASSES)}
    routing = physical.routing
    y = np.array([label_of[routing.tracks.wire(wid).rule.name.value]
                  for wid in wire_ids], dtype=int)
    return X, y


@dataclass
class TrainingStats:
    """What the guide saw during fitting."""

    n_samples: int
    label_counts: dict[str, int]
    train_accuracy: float
    feature_importances: dict[str, float] = field(default_factory=dict)


class NdrClassifierGuide:
    """Learns greedy rule decisions; predicts them on new designs."""

    def __init__(self, n_trees: int = 20, max_depth: int = 10,
                 seed: int = 0) -> None:
        self.model = RandomForestClassifier(n_trees=n_trees,
                                            max_depth=max_depth, seed=seed)
        self.stats: Optional[TrainingStats] = None

    # -- training -----------------------------------------------------------------

    def fit_designs(self, designs: Sequence[Design],
                    tech: Optional[Technology] = None,
                    targets: Optional[RobustnessTargets] = None,
                    jobs: int = 1, store=None) -> TrainingStats:
        """Train on the greedy optimizer's decisions over ``designs``.

        Sample generation goes through
        :func:`repro.ml.data.teacher_dataset`: with ``jobs > 1`` each
        design's teacher run executes in its own worker process, and
        with ``store`` the reference builds come from the shared
        artifact cache.
        """
        from repro.ml.data import teacher_dataset

        tech = tech if tech is not None else default_technology()
        X, y = teacher_dataset(designs, tech, targets=targets, jobs=jobs,
                               store=store)
        self.model.fit(X, y)
        pred = self.model.predict(X)
        counts = {name: int(np.sum(y == i))
                  for i, name in enumerate(RULE_CLASSES)}
        importances = dict(zip(WIRE_FEATURE_NAMES,
                               (float(v) for v in
                                self.model.feature_importances_)))
        self.stats = TrainingStats(
            n_samples=int(X.shape[0]),
            label_counts=counts,
            train_accuracy=accuracy(y, pred),
            feature_importances=importances,
        )
        return self.stats

    # -- persistence --------------------------------------------------------------

    def save(self, path: Union[str, Path]) -> None:
        """Write the fitted guide (model + training stats) to JSON."""
        from repro.ml.serialize import forest_to_dict

        if self.stats is None:
            raise RuntimeError("guide is not fitted")
        payload = {
            "schema": 1,
            "forest": forest_to_dict(self.model),
            "stats": asdict(self.stats),
        }
        Path(path).write_text(json.dumps(payload))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "NdrClassifierGuide":
        """Rebuild a guide saved with :meth:`save`."""
        from repro.ml.serialize import forest_from_dict

        payload = json.loads(Path(path).read_text())
        if payload.get("schema") != 1:
            raise ValueError(f"unsupported guide schema "
                             f"{payload.get('schema')!r}")
        guide = cls()
        guide.model = forest_from_dict(payload["forest"])
        guide.stats = TrainingStats(**payload["stats"])
        return guide

    # -- inference ----------------------------------------------------------------

    def predict_rules(self, physical: PhysicalDesign) -> dict[int, str]:
        """Predicted rule name per clock wire (no mutation).

        Features come from ``physical.extraction``: on a fresh build
        that is the default-rule state the guide was trained on.
        """
        if self.stats is None:
            raise RuntimeError("guide is not fitted")
        wire_ids, X = _wire_features(physical)
        labels = self.model.predict(X)
        return {wid: RULE_CLASSES[label]
                for wid, label in zip(wire_ids, labels)}

    def assign(self, physical: PhysicalDesign,
               targets: RobustnessTargets) -> OptimizeResult:
        """Stamp predicted rules, then run a short greedy repair pass.

        The stamped wires are re-extracted incrementally into
        ``physical.extraction``, which the repair then starts from.
        """
        predictions = self.predict_rules(physical)
        routing = physical.routing
        upgraded: dict[int, str] = {}
        stamped: list[int] = []
        for wire_id, rule_name in predictions.items():
            rule = rule_by_name(rule_name)
            if routing.tracks.wire(wire_id).rule != rule:
                routing.assign_rule(wire_id, rule)
                stamped.append(wire_id)
            if not rule.is_default:
                upgraded[wire_id] = rule_name
        incremental_re_extract(physical.extraction, stamped)

        repair = SmartNdrOptimizer(physical.tree, routing, physical.tech,
                                   targets, physical.design.clock_freq,
                                   max_iterations=REPAIR_ITERATIONS)
        result = repair.run(physical.extraction)
        # Merge the ML-stamped upgrades with the repairs (repair entries
        # win: they are the final state of those wires).
        merged = dict(upgraded)
        merged.update(result.upgraded)
        # Drop anything the repair's downgrade pass reverted to default.
        merged = {wid: name for wid, name in merged.items()
                  if not routing.tracks.wire(wid).rule.is_default}
        result.upgraded = merged
        return result
