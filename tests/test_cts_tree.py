"""Clock tree data structure invariants."""

import pytest

from repro.cts.tree import ClockTree
from repro.geom.point import Point


def _chain3() -> ClockTree:
    """root -> a -> leaf"""
    tree = ClockTree()
    root = tree.new_node(Point(0, 0))
    a = tree.new_node(Point(10, 0))
    leaf = tree.new_node(Point(10, 5))
    tree.set_root(root.node_id)
    tree.attach(root.node_id, a.node_id)
    tree.attach(a.node_id, leaf.node_id)
    return tree


def test_ids_dense_and_unique():
    tree = ClockTree()
    ids = [tree.new_node().node_id for _ in range(5)]
    assert ids == list(range(5))


def test_attach_rules():
    tree = ClockTree()
    a = tree.new_node()
    b = tree.new_node()
    tree.set_root(a.node_id)
    tree.attach(a.node_id, b.node_id)
    with pytest.raises(ValueError):
        tree.attach(a.node_id, b.node_id)  # already has parent
    with pytest.raises(ValueError):
        tree.attach(a.node_id, a.node_id)
    with pytest.raises(KeyError):
        tree.attach(a.node_id, 99)


def test_topo_order_parents_first():
    tree = _chain3()
    order = [n.node_id for n in tree.topo_order()]
    pos = {nid: i for i, nid in enumerate(order)}
    for node in tree:
        if node.parent is not None:
            assert pos[node.parent] < pos[node.node_id]


def test_postorder_children_first():
    tree = _chain3()
    order = [n.node_id for n in tree.postorder()]
    pos = {nid: i for i, nid in enumerate(order)}
    for node in tree:
        if node.parent is not None:
            assert pos[node.parent] > pos[node.node_id]


def test_depth_and_path():
    tree = _chain3()
    leaf = tree.topo_order()[-1]
    assert tree.depth(tree.root_id) == 0
    assert tree.depth(leaf.node_id) == 2
    path = tree.path_to_root(leaf.node_id)
    assert path[0] is leaf and path[-1] is tree.root


def test_edge_length_includes_snake():
    tree = _chain3()
    a = tree.topo_order()[1]
    assert tree.edge_length(a.node_id) == pytest.approx(10.0)
    a.snake = 5.0
    assert tree.edge_length(a.node_id) == pytest.approx(15.0)
    with pytest.raises(ValueError):
        tree.edge_length(tree.root_id)


def test_insert_above_middle():
    tree = _chain3()
    a = tree.topo_order()[1]
    fresh = tree.insert_above(a.node_id)
    tree.validate()
    assert a.parent == fresh.node_id
    assert fresh.parent == tree.root_id
    assert tree.depth(a.node_id) == 2


def test_insert_above_root():
    tree = _chain3()
    old_root = tree.root_id
    fresh = tree.insert_above(old_root)
    tree.validate()
    assert tree.root_id == fresh.node_id
    assert tree.node(old_root).parent == fresh.node_id


def test_subtree_ids():
    tree = _chain3()
    a = tree.topo_order()[1]
    assert set(tree.subtree_ids(a.node_id)) == {a.node_id, a.children[0]}
    assert set(tree.subtree_ids(tree.root_id)) == {n.node_id for n in tree}


def test_validate_detects_unreachable():
    tree = ClockTree()
    a = tree.new_node()
    tree.new_node()  # orphan
    tree.set_root(a.node_id)
    with pytest.raises(ValueError):
        tree.validate()


def test_validate_requires_root():
    tree = ClockTree()
    tree.new_node()
    with pytest.raises(ValueError):
        tree.validate()


def test_pad_split_properties():
    tree = _chain3()
    node = tree.root
    node.base_pad = 3.0
    node.trim_pad = 2.0
    assert node.load_pad == pytest.approx(5.0)
    node.base_snake = 10.0
    node.trim_snake = 5.0
    node.snake_r_per_um = 0.001
    node.snake_c_per_um = 0.2
    assert node.root_snake == pytest.approx(15.0)
    assert node.root_snake_r == pytest.approx(0.015)
    assert node.root_snake_c == pytest.approx(3.0)
