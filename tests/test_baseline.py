import numpy as np
import pytest

from mmdt import ValidationError, build_imm, empirical_price, sample
from mmdt.adversarial import gen_b3
from mmdt.baseline import CenteredDataset, _best_cut, nearest_center
from mmdt.tree import assign_components, check_structure

from conftest import cut_mistakes_on_subset


def make_blobs(seed=0, n=400, centers=((0.0, 0.0), (6.0, 0.0), (0.0, 6.0)), scale=0.8):
    rng = np.random.default_rng(seed)
    centers = np.asarray(centers, dtype=float)
    k = centers.shape[0]
    pts = np.vstack([rng.normal(c, scale, size=(n // k, 2)) for c in centers])
    return CenteredDataset(pts, centers)


def test_nearest_center_ties_to_lower_index():
    centers = np.array([[0.0], [2.0]])
    assert nearest_center(np.array([[1.0]]), centers)[0] == 0
    assert nearest_center(np.array([[1.001]]), centers)[0] == 1


def test_centered_dataset_validation():
    with pytest.raises(ValidationError, match="duplicates"):
        CenteredDataset(np.zeros((3, 2)), np.zeros((2, 2)))
    # the assignment is computed, never given
    with pytest.raises(TypeError, match="assignment"):
        CenteredDataset(np.array([[0.0], [5.0]]), np.array([[0.0], [5.0]]), assignment=np.array([1, 1]))


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
        CenteredDataset(np.zeros((3, 2)), np.array(centers))


def test_centered_dataset_assigns_once(monkeypatch):
    calls = []

    def counting(points, centers):
        calls.append(1)
        return nearest_center(points, centers)

    monkeypatch.setattr("mmdt.baseline.nearest_center", counting)
    data = CenteredDataset(np.array([[0.0], [4.0], [1.0]]), np.array([[0.0], [5.0]]))
    assert len(calls) == 1 and data.assignment.tolist() == [0, 1, 0]


def test_build_imm_separable_zero_mistakes():
    data = make_blobs(seed=1, scale=0.3)
    tree = build_imm(data)
    check_structure(tree, data.centers)
    leaf_of = assign_components(tree, data.points)
    assert np.mean(leaf_of != data.assignment) == 0.0


def test_build_imm_on_b3_sample():
    inst = gen_b3(4)
    d = sample(inst.model, 10_000, seed=2)
    data = CenteredDataset(d.points, inst.model.means())
    tree = build_imm(data)
    assert abs(tree.root.cut.theta) < 0.3
    err = float(np.mean(assign_components(tree, d.points) != d.labels))
    assert err == pytest.approx(1.0 / 8.0, abs=0.02)


def test_build_imm_rejects_single_center():
    pts = np.zeros((5, 2))
    with pytest.raises(ValidationError):
        build_imm(CenteredDataset(pts, np.zeros((1, 2))))


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


@pytest.mark.parametrize("seed", range(5))
def test_cut_mistakes_match_the_whole_row_count(seed):
    # The invariant check reads one column of the points and centers; the
    # count must be the one taken from whole rows.
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-4.0, 4.0, (4, 3))
    data = CenteredDataset(centers[rng.integers(4, size=400)] + rng.normal(0.0, 2.5, (400, 3)), centers)
    for _ in range(20):
        idx = np.flatnonzero(rng.random(data.points.shape[0]) < 0.6)
        reached = sorted(rng.choice(4, int(rng.integers(1, 5)), replace=False).tolist())
        axis, theta = int(rng.integers(3)), float(rng.uniform(-4.0, 4.0))
        alive = np.isin(data.assignment[idx], reached)
        pts, ctr = data.points[idx][alive], data.centers[data.assignment[idx][alive]]
        whole_rows = int(np.sum((pts[:, axis] <= theta) != (ctr[:, axis] <= theta)))
        assert cut_mistakes_on_subset(data, idx, reached, axis, theta) == whole_rows


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
    data = CenteredDataset(pts, np.array([[-1.0], [2.0]]))
    tree = AxisTree(
        root=TreeNode(cut=AxisCut(0, 2.0), left=TreeNode(leaf=0), right=TreeNode(leaf=1)),
        dim=1,
    )
    assert empirical_price(data, tree, "l1") < 1.0
    assert empirical_price(data, tree, "l2sq") < 1.0


def test_empirical_price_norm_guard():
    data = make_blobs(seed=5)
    tree = build_imm(data)
    with pytest.raises(ValidationError):
        empirical_price(data, tree, "huber")


def test_empirical_price_zero_baseline():
    # Every point on its center: the baseline costs 0, so a tree that keeps
    # the assignment prices at 1, and one that misroutes a point at inf.
    from mmdt.tree import AxisCut, AxisTree, TreeNode

    data = CenteredDataset(np.array([[0.0], [0.0], [5.0], [5.0]]), np.array([[0.0], [5.0]]))
    for theta, price in ((2.5, 1.0), (-1.0, np.inf)):
        tree = AxisTree(
            root=TreeNode(cut=AxisCut(0, theta), left=TreeNode(leaf=0), right=TreeNode(leaf=1)),
            dim=1,
        )
        assert empirical_price(data, tree, "l1") == price
        assert empirical_price(data, tree, "l2sq") == price


def test_imm_mistakes_bounded_by_n():
    data = make_blobs(seed=6, scale=2.5)
    tree = build_imm(data)  # internal assert: mistakes <= node size
    check_structure(tree, data.centers)


def _dense_nearest_center(points, centers):
    # Reference on the (n, K, d) difference tensor.
    return np.argmin(((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2), axis=1)


def _dense_best_cut(points, assign, centers, center_idx):
    # Reference: one sort and one searchsorted per live center over the
    # union1d of point and center midpoints.
    alive = np.isin(assign, center_idx)
    best = None
    for axis in range(points.shape[1]):
        c_proj = centers[center_idx, axis]
        coords = np.unique(points[:, axis])
        cands = 0.5 * (coords[:-1] + coords[1:]) if coords.size > 1 else np.empty(0)
        c_sorted = np.unique(c_proj)
        cands = np.union1d(cands, 0.5 * (c_sorted[:-1] + c_sorted[1:]))
        cands = cands[(cands >= c_proj.min()) & (cands < c_proj.max())]
        if cands.size == 0:
            continue
        mistakes = np.zeros(cands.size, dtype=int)
        for k in center_idx:
            rows = np.sort(points[alive & (assign == k), axis])
            left_count = np.searchsorted(rows, cands, side="right")
            mistakes += np.where(centers[k, axis] <= cands, rows.size - left_count, left_count)
        j = int(np.argmin(mistakes))
        cand = (axis, float(cands[j]), int(mistakes[j]))
        if best is None or (cand[2], cand[0], cand[1]) < (best[2], best[0], best[1]):
            best = cand
    if best is None:
        raise ValidationError("no candidate cut separates the remaining centers")
    return best


def _cut_case(seed):
    """Seeded node: points (some rows rounded onto a coarse grid so that
    coordinates and center projections tie), all centers, the nearest-center
    assignment and a random subset of at least two live centers, so points
    of dead centers are present."""
    rng = np.random.default_rng(seed)
    k, d, n = int(rng.integers(2, 7)), int(rng.integers(1, 5)), int(rng.integers(0, 80))
    decimals = int(rng.integers(0, 2))
    centers = np.round(rng.uniform(-3.0, 3.0, size=(k, d)), decimals)
    points = rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0)
    coarse = rng.random(n) < 0.7
    points[coarse] = np.round(points[coarse], decimals)
    live = sorted(rng.choice(k, size=int(rng.integers(2, k + 1)), replace=False).tolist())
    return points, nearest_center(points, centers), centers, live


@pytest.mark.parametrize("seed", range(300))
def test_best_cut_matches_dense_reference(seed):
    points, assign, centers, live = _cut_case(seed)
    try:
        want = _dense_best_cut(points, assign, centers, live)
    except ValidationError:  # live centers that coincide on every axis
        with pytest.raises(ValidationError, match="no candidate cut"):
            _best_cut(points, assign, centers, live)
        return
    got = _best_cut(points, assign, centers, live)
    assert got == want and type(got[1]) is float and type(got[2]) is int


def test_best_cut_without_separating_cut_raises():
    centers = np.array([[0.0, 1.0], [2.0, 2.0], [0.0, 1.0]])
    points = np.array([[0.0, 1.0], [1.0, 0.0], [3.0, 3.0]])
    assign = np.array([0, 2, 1])
    for cut in (_dense_best_cut, _best_cut):
        with pytest.raises(ValidationError, match="no candidate cut"):
            cut(points, assign, centers, [0, 2])


@pytest.mark.parametrize("seed", range(40))
def test_nearest_center_matches_dense_reference(seed):
    rng = np.random.default_rng(seed)
    k, d = int(rng.integers(1, 7)), int(rng.integers(1, 5))
    # Integer grids put many points at equal distance from two centers.
    points = rng.integers(-4, 5, size=(int(rng.integers(1, 300)), d)).astype(float)
    centers = rng.integers(-4, 5, size=(k, d)).astype(float)
    if seed % 2:
        points, centers = points * 0.1 + 1e3, centers * 0.1 + 1e3
    want = _dense_nearest_center(points, centers)
    assert np.array_equal(nearest_center(points, centers), want)


@pytest.mark.parametrize("seed", range(8))
def test_build_imm_matches_dense_cut_tree(seed, monkeypatch):
    rng = np.random.default_rng(50 + seed)
    k, d = int(rng.integers(2, 6)), int(rng.integers(1, 4))
    centers = np.round(rng.uniform(-5.0, 5.0, size=(k, d)), 1)
    points = np.round(centers[rng.integers(0, k, 500)] + rng.normal(size=(500, d)) * 1.5, 1)
    data = CenteredDataset(points, centers)
    tree = build_imm(data).to_dict()
    monkeypatch.setattr("mmdt.baseline._best_cut", _dense_best_cut)
    assert build_imm(data).to_dict() == tree
