"""Trees of any depth: every walk over a tree, its JSON and its builders is
a loop over the pre-order node list, so deep caterpillars (what separated
means make) build, save, load, route, export and price without recursing
once per level."""

import contextlib
import sys

import numpy as np
import numpy.ma  # noqa: F401  np.unique imports it on first use, deeper than frames_to_spare allows
import pytest

from mmdt import CenteredDataset, Component, MixtureModel, ValidationError, build_imm, build_mmdt
from mmdt import kernel as kernel_module
from mmdt.evaluate import exact_error_rate_gaussian
from mmdt.io import load_tree, save_tree
from mmdt.kernel import build_kernel_mmdt, interval_predict
from mmdt.tree import AxisCut, AxisTree, assign_components, check_structure, export_dot, predict

from oracles import caterpillar_kernel_stats, moved_thresholds, node_depths


@contextlib.contextmanager
def frames_to_spare(spare: int = 60):
    """Allow at most about ``spare`` Python frames above the caller's, so
    that a walk recursing once per tree level fails on a deep tree."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + spare)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def test_deep_axis_tree_needs_no_recursion(tmp_path):
    # Means 1.05^k, 50 stddevs apart and more: chebyshev cuts off about one
    # component per level.
    k = 200
    model = MixtureModel.create(tuple(Component.gaussian([1.05**j], [1e-3]) for j in range(k)), np.full(k, 1.0 / k))
    path = tmp_path / "t.json"
    with frames_to_spare():
        tree = build_mmdt(model)
        save_tree(path, tree)
        loaded = load_tree(path)
        routed = assign_components(loaded, model.means())
        dot = export_dot(loaded)
        check_structure(loaded, model.means())
        rate = exact_error_rate_gaussian(model, loaded)
    assert max(node_depths(tree)) > 150
    assert loaded.nodes == tree.nodes
    assert routed.tolist() == list(range(k))
    assert dot.count("->") == 2 * (k - 1)
    assert 0.0 <= rate < 1e-12


def test_deep_imm_tree_needs_no_recursion():
    # No cut makes a mistake, so the lowest one wins at every node and each
    # splits off the lowest center.
    centers = 1.05 ** np.arange(150.0)[:, None]
    data = CenteredDataset(np.repeat(centers, 2, axis=0), centers)
    with frames_to_spare():
        tree = build_imm(data)
        check_structure(tree, centers)
    assert max(node_depths(tree)) == 149


def test_deep_kernel_tree_needs_no_recursion():
    # the caterpillar of the kernel memory test, deeper and in fewer dimensions
    k = 150
    model, ker, stats = caterpillar_kernel_stats(k, 2)
    points = np.random.default_rng(1).normal(scale=3.0, size=(50, 2))
    with frames_to_spare():
        tree = build_kernel_mmdt(model, ker, stats, seed=0)
        kernel_module.check_structure(tree, stats)
        routed = [interval_predict(tree, x) for x in points]
    assert max(node_depths(tree)) == k - 1
    assert routed == [predict(tree, x) for x in points]


def _right_spine(k: int) -> list:
    # cut c sends x <= c + 0.5 to leaf c and the rest down the spine
    return [node for c in range(k - 1) for node in (AxisCut(0, c + 0.5), c)] + [k - 1]


def test_depth_5000_caterpillar_round_trips(tmp_path):
    k = 5001
    tree = AxisTree(nodes=_right_spine(k), dim=1)
    assert max(node_depths(tree)) == 5000
    save_tree(tmp_path / "t.json", tree)
    loaded = load_tree(tmp_path / "t.json")
    assert loaded.nodes == tree.nodes
    means = np.arange(float(k))[:, None]
    assert assign_components(loaded, means).tolist() == list(range(k))
    check_structure(loaded, means)
    dot = export_dot(loaded).splitlines()
    # every cut's edges follow its subtree, so the root's close the text
    assert len(dot) == 3 + len(tree.nodes) + 2 * (k - 1)
    assert dot[-3:] == ['  n0 -> n1 [label="yes"];', '  n0 -> n2 [label="no"];', "}"]
    # a format-1 root that deep converts without recursing (json cannot parse it)
    root = {"leaf": k - 1}
    for c in range(k - 2, -1, -1):
        root = {"axis": 0, "theta": c + 0.5, "left": {"leaf": c}, "right": root}
    old = AxisTree.from_dict({"format_version": 1, "kind": "axis", "dim": 1, "n_leaves": k, "root": root})
    assert old.nodes == tree.nodes


@pytest.mark.parametrize(
    "nodes",
    [
        pytest.param([], id="empty"),
        pytest.param([AxisCut(0, 0.5), 0], id="cut-without-right-child"),
        pytest.param([0, 1], id="node-after-a-leaf-root"),
        pytest.param([AxisCut(0, 0.5), 0, 1, 2], id="node-after-the-tree"),
        pytest.param([AxisCut(0, 0.5), AxisCut(0, 0.2), 0, 1], id="cut-left-open"),
    ],
)
def test_nodes_must_be_one_tree_in_pre_order(nodes):
    with pytest.raises(ValidationError):
        AxisTree(nodes=nodes, dim=1)


def test_leaves_may_be_numpy_integers():
    tree = AxisTree(nodes=[AxisCut(0, 0.5), np.int64(0), np.intp(1)], dim=1)
    assert tree.nodes == (AxisCut(0, 0.5), 0, 1) and [type(node) for node in tree.nodes[1:]] == [int, int]
    assert tree.to_dict()["nodes"][1:] == [{"leaf": 0}, {"leaf": 1}]
    with pytest.raises(TypeError, match="'str' object cannot be interpreted as an integer"):
        AxisTree(nodes=[AxisCut(0, 0.5), "0", 1], dim=1)


def test_right_children_follow_pre_order():
    tree = AxisTree(nodes=[AxisCut(0, 2.0), AxisCut(0, 1.0), 0, 1, AxisCut(0, 3.0), 2, 3], dim=1)
    assert tree.right == (4, 3, 0, 0, 6, 0, 0)
    assert tree.leaves() == [0, 1, 2, 3] and tree.n_leaves == 4
    assert node_depths(tree) == [0, 1, 2, 2, 1, 2, 2]


def test_moved_thresholds_compares_pre_order_nodes():
    old = {"axis": 0, "theta": 2.0, "left": {"leaf": 0}, "right": {"axis": 1, "theta": 3.0, "left": {"leaf": 1}, "right": {"leaf": 2}}}
    new = AxisTree(nodes=[AxisCut(0, 2.0), 0, AxisCut(1, 3.0), 1, 2], dim=2).to_dict()
    assert moved_thresholds(old, new) == []
    nudged = AxisTree(nodes=[AxisCut(0, np.nextafter(2.0, 3.0)), 0, AxisCut(0, 3.0), 2, 1], dim=2).to_dict()
    assert moved_thresholds(old, nudged) == [
        (0, 0, 2.0, np.nextafter(2.0, 3.0), 1),
        (2, (1, 0), 3.0, 3.0, None),
        (3, "leaf", 1, 2, None),
        (4, "leaf", 2, 1, None),
    ]
    reshaped = AxisTree(nodes=[AxisCut(0, 2.0), AxisCut(1, 3.0), 0, 1, 2], dim=2).to_dict()
    assert moved_thresholds(old, reshaped) == [(1, "leaf", 0, None, None)]
    kernel_cut = {"axis": 0, "prototype": [0.5], "theta": 0.5, "anchor": 0}
    moved = {**kernel_cut, "prototype": [0.25]}
    assert moved_thresholds({"nodes": [kernel_cut, {"leaf": 0}, {"leaf": 1}]}, {"nodes": [moved, {"leaf": 0}, {"leaf": 1}]}) == [
        (0, "prototype", ([0.5], 0), ([0.25], 0), None)
    ]
