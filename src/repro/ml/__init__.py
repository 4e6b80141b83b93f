"""From-scratch machine-learning substrate (no sklearn dependency).

Substrate S12 in DESIGN.md.  Provides exactly what the ML-guided rule
assignment (:mod:`repro.core.mlguide`) needs:

* :class:`~repro.ml.tree.DecisionTreeClassifier` — CART with Gini
  impurity,
* :class:`~repro.ml.forest.RandomForestClassifier` — bagged CART trees
  with feature subsampling,
* :mod:`repro.ml.metrics` — accuracy/precision/recall/F1/confusion,
* :mod:`repro.ml.data` — the teacher-set generator.
"""

from repro.ml.tree import DecisionTreeClassifier
from repro.ml.forest import RandomForestClassifier
from repro.ml.metrics import (accuracy, precision, recall, f1_score,
                              confusion_matrix)
from repro.ml.data import teacher_dataset

__all__ = [
    "teacher_dataset",
    "DecisionTreeClassifier",
    "RandomForestClassifier",
    "accuracy",
    "precision",
    "recall",
    "f1_score",
    "confusion_matrix",
]
