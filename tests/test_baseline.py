import numpy as np
import pytest

from mmdt import ValidationError, build_imm, empirical_price, sample
from mmdt.adversarial import gen_b3
from mmdt.baseline import CenteredDataset, cut_mistakes_on_subset, nearest_center
from mmdt.tree import assign_components, check_structure


def make_blobs(seed=0, n=400, centers=((0.0, 0.0), (6.0, 0.0), (0.0, 6.0)), scale=0.8):
    rng = np.random.default_rng(seed)
    centers = np.asarray(centers, dtype=float)
    k = centers.shape[0]
    pts = np.vstack([rng.normal(c, scale, size=(n // k, 2)) for c in centers])
    return CenteredDataset.create(pts, centers)


def test_nearest_center_ties_to_lower_index():
    centers = np.array([[0.0], [2.0]])
    assert nearest_center(np.array([[1.0]]), centers)[0] == 0
    assert nearest_center(np.array([[1.001]]), centers)[0] == 1


def test_centered_dataset_validation():
    with pytest.raises(ValidationError, match="duplicates"):
        CenteredDataset.create(np.zeros((3, 2)), np.zeros((2, 2)))
    pts = np.array([[0.0], [5.0]])
    centers = np.array([[0.0], [5.0]])
    with pytest.raises(ValidationError, match="nearest-center"):
        CenteredDataset(points=pts, centers=centers, assignment=np.array([1, 1]))


@pytest.mark.parametrize(
    "centers, pair",
    [
        ([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [1.0, 1.0], [0.0, 0.0]], "centers 0 and 4"),
        ([[3.0, 0.0], [1.0, 1.0], [2.0, 2.0], [1.0, 1.0], [2.0, 2.0]], "centers 1 and 3"),
        ([[5.0, 5.0], [0.0, -0.0], [0.0, 0.0]], "centers 1 and 2"),
    ],
)
def test_centered_dataset_names_lowest_duplicate_pair(centers, pair):
    with pytest.raises(ValidationError, match=f"{pair} are duplicates"):
        CenteredDataset.create(np.zeros((3, 2)), np.array(centers))


def test_centered_dataset_assigns_once(monkeypatch):
    calls = []

    def counting(points, centers):
        calls.append(1)
        return nearest_center(points, centers)

    monkeypatch.setattr("mmdt.baseline.nearest_center", counting)
    data = CenteredDataset.create(np.array([[0.0], [4.0], [1.0]]), np.array([[0.0], [5.0]]))
    assert len(calls) == 1 and data.assignment.tolist() == [0, 1, 0]
    given = CenteredDataset(points=data.points, centers=data.centers, assignment=[0, 1, 0])
    assert given.assignment.tolist() == [0, 1, 0]


def test_build_imm_separable_zero_mistakes():
    data = make_blobs(seed=1, scale=0.3)
    tree = build_imm(data)
    check_structure(tree, data.centers)
    leaf_of = assign_components(tree, data.points)
    assert np.mean(leaf_of != data.assignment) == 0.0


def test_build_imm_on_b3_sample():
    inst = gen_b3(4)
    d = sample(inst.model, 10_000, seed=2)
    data = CenteredDataset.create(d.points, inst.model.means())
    tree = build_imm(data)
    assert abs(tree.root.cut.theta) < 0.3
    err = float(np.mean(assign_components(tree, d.points) != d.labels))
    assert err == pytest.approx(1.0 / 8.0, abs=0.02)


def test_build_imm_rejects_single_center():
    pts = np.zeros((5, 2))
    with pytest.raises(ValidationError):
        build_imm(CenteredDataset.create(pts, np.zeros((1, 2))))


def test_cut_mistake_subset_monotonicity():
    data = make_blobs(seed=3, scale=1.4)
    tree = build_imm(data)  # build asserts the subset property internally
    # and explicitly: restricting a fixed root cut to either side's points
    # cannot increase its mistake count
    cut = tree.root.cut
    all_idx = np.arange(data.points.shape[0])
    full = cut_mistakes_on_subset(data, all_idx, range(data.k), cut.axis, cut.theta)
    left = all_idx[data.points[:, cut.axis] <= cut.theta]
    right = all_idx[data.points[:, cut.axis] > cut.theta]
    for part in (left, right):
        assert cut_mistakes_on_subset(data, part, range(data.k), cut.axis, cut.theta) <= full


def test_empirical_price_identical_partition():
    data = make_blobs(seed=4, scale=0.2)
    tree = build_imm(data)
    # separable blobs: the tree reproduces the assignment exactly
    assert np.array_equal(assign_components(tree, data.points), data.assignment)
    assert empirical_price(data, tree, "l1") == pytest.approx(1.0, abs=1e-12)
    assert empirical_price(data, tree, "l2sq") == pytest.approx(1.0, abs=1e-12)


def test_empirical_price_below_one_is_legal():
    # a suboptimal reference partition (offset centers) can price a good
    # externally built tree below 1
    from mmdt.tree import AxisCut, AxisTree, TreeNode

    rng = np.random.default_rng(12)
    pts = np.vstack([rng.normal(0.0, 1.0, size=(200, 1)), rng.normal(4.0, 1.0, size=(200, 1))])
    data = CenteredDataset.create(pts, np.array([[-1.0], [2.0]]))
    tree = AxisTree(
        root=TreeNode(cut=AxisCut(0, 2.0), left=TreeNode(leaf=0), right=TreeNode(leaf=1)),
        dim=1,
        n_leaves=2,
    )
    assert empirical_price(data, tree, "l1") < 1.0
    assert empirical_price(data, tree, "l2sq") < 1.0


def test_empirical_price_details_and_norm_guard():
    data = make_blobs(seed=5)
    tree = build_imm(data)
    price, details = empirical_price(data, tree, "l1", return_details=True)
    assert price == pytest.approx(details["tree_cost"] / details["baseline_cost"])
    with pytest.raises(ValidationError):
        empirical_price(data, tree, "huber")


def test_imm_mistakes_bounded_by_n():
    data = make_blobs(seed=6, scale=2.5)
    tree = build_imm(data)  # internal assert: mistakes <= node size
    check_structure(tree, data.centers)
