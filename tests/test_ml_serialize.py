"""Model persistence round trips."""

import json

import numpy as np
import pytest

from repro.ml.forest import RandomForestClassifier
from repro.ml.serialize import (forest_from_dict, forest_to_dict,
                                tree_from_dict, tree_to_dict)
from repro.ml.tree import DecisionTreeClassifier


def _data(n=200, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 4))
    y = ((X[:, 0] + X[:, 2]) > 0).astype(int)
    return X, y


def test_tree_round_trip_exact():
    X, y = _data()
    tree = DecisionTreeClassifier(max_depth=5, min_samples_leaf=3).fit(X, y)
    rebuilt = tree_from_dict(tree_to_dict(tree))
    assert np.array_equal(tree.predict(X), rebuilt.predict(X))
    assert np.allclose(tree.predict_proba(X), rebuilt.predict_proba(X))
    assert np.allclose(tree.feature_importances_,
                       rebuilt.feature_importances_)


def test_tree_dict_is_json_safe():
    X, y = _data(50)
    tree = DecisionTreeClassifier(max_depth=3).fit(X, y)
    text = json.dumps(tree_to_dict(tree))
    rebuilt = tree_from_dict(json.loads(text))
    assert np.array_equal(tree.predict(X), rebuilt.predict(X))


def test_unfitted_tree_rejected():
    with pytest.raises(ValueError):
        tree_to_dict(DecisionTreeClassifier())


def test_forest_round_trip_exact():
    X, y = _data()
    forest = RandomForestClassifier(n_trees=7, seed=3).fit(X, y)
    rebuilt = forest_from_dict(forest_to_dict(forest))
    assert np.allclose(forest.predict_proba(X), rebuilt.predict_proba(X))
    assert np.allclose(forest.feature_importances_,
                       rebuilt.feature_importances_)


def test_forest_schema_checked():
    X, y = _data(60)
    forest = RandomForestClassifier(n_trees=2, seed=1).fit(X, y)
    payload = forest_to_dict(forest)
    payload["schema"] = 99
    with pytest.raises(ValueError):
        forest_from_dict(payload)


def test_unfitted_forest_rejected():
    with pytest.raises(ValueError):
        forest_to_dict(RandomForestClassifier())


def test_guide_save_load(tmp_path, tech):
    from repro.designs import DesignSpec, generate_design
    from repro.core.mlguide import NdrClassifierGuide
    from repro.core.flow import build_physical_design

    spec = DesignSpec("mlsave", n_sinks=24, die_edge=160.0, seed=41)
    guide = NdrClassifierGuide(n_trees=5, seed=2)
    guide.fit_designs([generate_design(spec)], tech)
    path = tmp_path / "guide.json"
    guide.save(path)
    loaded = NdrClassifierGuide.load(path)
    assert loaded.stats.n_samples == guide.stats.n_samples
    phys = build_physical_design(generate_design(spec), tech)
    a = guide.predict_rules(phys)
    b = loaded.predict_rules(phys)
    assert a == b


def test_guide_unfitted_save_rejected(tmp_path):
    from repro.core.mlguide import NdrClassifierGuide

    with pytest.raises(RuntimeError):
        NdrClassifierGuide().save(tmp_path / "x.json")


def test_guide_schema_check(tmp_path):
    from repro.core.mlguide import NdrClassifierGuide

    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": 7}))
    with pytest.raises(ValueError):
        NdrClassifierGuide.load(path)
