import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import erfc

from mmdt import (
    AxisTree,
    Component,
    LabeledDataset,
    MixtureModel,
    ValidationError,
    build_mmdt,
    empirical_moments,
    minimize_threshold,
    objective_value,
    predict,
    select_axis,
)
from mmdt.adversarial import gen_b3, gen_thm4
from mmdt.errors import IncompatibilityError
from mmdt.tree import (
    AxisCut,
    TreeNode,
    _midpoint_candidates,
    assign_components,
    check_structure,
    export_dot,
    normal_upper_tail,
)

from conftest import gaussian_battery, random_discrete_model, scale_shift


def gaussians(means, sigma, weights=None):
    means = np.asarray(means, dtype=float)
    k = means.shape[0]
    comps = tuple(Component.gaussian(means[j], sigma) for j in range(k))
    w = np.full(k, 1.0 / k) if weights is None else np.asarray(weights, dtype=float)
    return MixtureModel.create(comps, w, sigma=sigma)


def test_select_axis_examples():
    assert select_axis(gaussians([[0, 0], [1, 0]], [1, 1]), [0, 1]) == (0, 1.0)
    assert select_axis(gaussians([[0, 0], [2, 3]], [1, 1]), [0, 1]) == (1, 3.0)
    # normalized tie 2 vs 2 resolves to the lower axis
    assert select_axis(gaussians([[0, 0], [2, 4]], [1, 2]), [0, 1]) == (0, 2.0)
    with pytest.raises(ValidationError):
        select_axis(gaussians([[0.0], [1.0]], [1.0]), [0])


def test_chebyshev_objective_examples():
    m = gaussians([[0.0], [10.0]], [1.0])
    assert objective_value(m, [0, 1], 0, 5.0, "chebyshev") == pytest.approx(4.0 / 100.0)
    # threshold hugging the far mean: its term clamps at the weight, the
    # other decays like sigma^2 / distance^2
    val = objective_value(m, [0, 1], 0, 9.99999, "chebyshev")
    assert val == pytest.approx(0.5 * 1.0 + 0.5 / 9.99999**2, rel=1e-9)
    # singleton node: the lone component's tail bound
    assert objective_value(m, [0], 0, 2.0, "chebyshev") == pytest.approx(min(1.0, 1.0 / 4.0))
    with pytest.raises(ValidationError, match="threshold on a mean"):
        objective_value(m, [0, 1], 0, 10.0, "chebyshev")


def test_chebyshev_clamps_at_one():
    m = gaussians([[0.0], [1.0]], [50.0])
    assert objective_value(m, [0, 1], 0, 0.5, "chebyshev") == pytest.approx(1.0)


def test_normal_upper_tail_matches_scipy_erfc():
    grid = np.linspace(-40.0, 40.0, 8001)
    tails = normal_upper_tail(grid)
    assert tails.dtype == np.float64 and tails.shape == grid.shape
    reference = 0.5 * erfc(grid / np.sqrt(2.0))
    # past t ~ 37.5 both sides are subnormal, where scipy flushes to zero sooner
    normal = reference >= np.finfo(float).tiny
    np.testing.assert_allclose(tails[normal], reference[normal], rtol=1e-12, atol=0.0)
    assert np.all(tails[~normal] < np.finfo(float).tiny)
    np.testing.assert_array_equal(normal_upper_tail([np.inf, -np.inf]), [0.0, 1.0])
    for scalar in (1.5, np.float64(1.5), np.array(1.5)):
        tail = normal_upper_tail(scalar)
        assert np.ndim(tail) == 0
        assert float(tail) == pytest.approx(0.5 * erfc(1.5 / np.sqrt(2.0)), rel=1e-12)


def test_gaussian_objective_examples():
    m = gaussians([[0.0], [8.0]], [2.0])
    # symmetric midpoint: 2 * (1/2) * tail(R / (2 sigma))
    assert objective_value(m, [0, 1], 0, 4.0, "gaussian") == pytest.approx(
        float(normal_upper_tail(2.0)), rel=1e-12
    )
    # tail at three sigma, single unit-weight component
    single = gaussians([[0.0], [100.0]], [1.0])
    assert objective_value(single, [0], 0, 3.0, "gaussian") == pytest.approx(1.3499e-3, abs=1e-7)
    # boundary consistency: value approaches 1/2 as theta approaches a mean
    assert objective_value(single, [0], 0, 1e-12, "gaussian") == pytest.approx(0.5, abs=1e-9)
    disc = MixtureModel.create(
        (Component.discrete([[0.0]], [1.0]), Component.discrete([[1.0]], [1.0])), [0.5, 0.5]
    )
    with pytest.raises(ValidationError, match="gaussian objective"):
        objective_value(disc, [0, 1], 0, 0.5, "gaussian")


def test_exact_discrete_objective_examples():
    point = MixtureModel.create(
        (Component.discrete([[0.0]], [1.0]), Component.discrete([[1.0]], [1.0])), [0.5, 0.5]
    )
    assert objective_value(point, [0, 1], 0, 0.5, "exact-discrete") == 0.0
    inst = gen_thm4(2, 2)
    assert objective_value(inst.model, [0, 1], 0, 0.5, "exact-discrete") == pytest.approx(0.25)
    with pytest.raises(ValidationError, match="threshold on a mean"):
        objective_value(inst.model, [0, 1], 0, 1.0, "exact-discrete")
    gauss = gaussians([[0.0], [1.0]], [1.0])
    with pytest.raises(ValidationError):
        objective_value(gauss, [0, 1], 0, 0.5, "exact-discrete")


def dense_exact_discrete(model, comps, axis, thetas):
    # Reference: the (thetas x support) mask formula the sweep replaced.
    w = model.weights[comps] / model.weights[comps].sum()
    terms = []
    for k in comps:
        comp = model.components[k]
        mean_left = comp.mean[axis] <= thetas[:, None]
        point_left = comp.support[:, axis] <= thetas[:, None]
        terms.append((mean_left != point_left) @ comp.mass)
    return np.stack(terms, axis=-1) @ w


def node_problems(model):
    # every (node components, axis) pair with distinct means on the axis,
    # for the root and for each pair of components
    means = model.means()
    comps_sets = [list(range(model.k))] + [[a, b] for a in range(model.k) for b in range(a + 1, model.k)]
    for comps in comps_sets:
        for axis in range(model.dim):
            if np.ptp(means[comps, axis]) > 0:
                yield comps, axis


def test_exact_discrete_sweep_matches_dense():
    for seed in range(300, 340):
        check_sweep_against_dense(random_discrete_model(seed), np.random.default_rng(seed))


def check_sweep_against_dense(model, rng):
    for comps, axis in node_problems(model):
        cands = _midpoint_candidates(model, comps, axis)
        # also thresholds exactly on support points and outside the means
        pts = np.concatenate([model.components[k].support[:, axis] for k in comps])
        extra = np.concatenate([pts, rng.uniform(pts.min() - 1.0, pts.max() + 1.0, 20)])
        extra = extra[~np.isin(extra, model.means()[comps, axis])]
        for thetas in (cands, extra):
            got = objective_value(model, comps, axis, thetas, "exact-discrete")
            np.testing.assert_allclose(got, dense_exact_discrete(model, comps, axis, thetas), rtol=0, atol=1e-12)
        # same theta as the dense argmin over the same candidates
        dense = dense_exact_discrete(model, comps, axis, cands)
        theta, value = minimize_threshold(model, comps, axis, "exact-discrete")
        assert theta == cands[int(np.argmin(dense))]
        assert value == pytest.approx(dense.min(), abs=1e-12)


def test_exact_discrete_sweep_ties():
    # component 0 has two support points tied at 1.0, which is also its
    # mean; component 1 has a support point on that mean and one tied with
    # component 0's point at 2.0
    c0 = Component.discrete([[0.0], [1.0], [1.0], [2.0]], [0.25, 0.25, 0.25, 0.25])
    c1 = Component.discrete([[1.0], [2.0], [4.0], [6.0]], [0.25, 0.25, 0.25, 0.25])
    model = MixtureModel.create((c0, c1), [0.4, 0.6])
    assert model.means()[:, 0].tolist() == [1.0, 3.25]
    thetas = np.array([-1.0, 0.0, 0.5, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 5.0, 6.0, 7.0])
    got = objective_value(model, [0, 1], 0, thetas, "exact-discrete")
    np.testing.assert_allclose(got, dense_exact_discrete(model, [0, 1], 0, thetas), rtol=0, atol=1e-12)
    # at theta = 2 both points at 2.0 lie left: c0 loses nothing, c1 loses
    # its points at 1.0 and 2.0
    assert got[4] == pytest.approx(0.6 * 0.5, abs=1e-15)
    assert objective_value(model, [0, 1], 0, 2.0, "exact-discrete") == got[4]
    with pytest.raises(ValidationError, match="threshold on a mean"):
        objective_value(model, [0, 1], 0, np.array([0.5, 1.0]), "exact-discrete")
    cands = _midpoint_candidates(model, [0, 1], 0)
    assert cands.tolist() == [1.5, 2.625]
    theta, value = minimize_threshold(model, [0, 1], 0, "exact-discrete")
    dense = dense_exact_discrete(model, [0, 1], 0, cands)
    assert theta == cands[int(np.argmin(dense))] and value == pytest.approx(dense.min(), abs=1e-15)


def test_exact_discrete_tie_takes_lowest_theta():
    # theta 1.55 and 3.35 both separate mass 0.3, summed as 0.5 * 0.3 +
    # 0.5 * (0.1 + 0.2) and 0.5 * (0.3 + 0.2) + 0.5 * 0.1; the first rounds one
    # ulp higher (by the dense masks too), so a plain argmin takes 3.35
    c0 = Component.discrete([[1.0], [2.0], [6.0]], [0.3, 0.2, 0.5])
    c1 = Component.discrete([[0.0], [3.0], [5.0]], [0.7, 0.2, 0.1])
    model = MixtureModel.create((c0, c1), [0.5, 0.5])
    cands = _midpoint_candidates(model, [0, 1], 0)
    assert cands == pytest.approx([1.55, 2.5, 3.35])
    theta, value = minimize_threshold(model, [0, 1], 0, "exact-discrete")
    assert theta == 1.55
    assert value == pytest.approx(0.3, abs=1e-15)


def test_exact_discrete_build_memory_is_linear_in_support():
    # 60k support points: the dense (candidates x support) masks would need
    # tens of GB; the sweep keeps a few arrays of the support size
    rng = np.random.default_rng(11)
    k, d, n = 3, 4, 60_000
    means = np.zeros((k, d))
    means[:, 0] = 3.0 * np.arange(k)
    labels = rng.integers(0, k, n)
    points = means[labels] + rng.normal(size=(n, d))
    model = empirical_moments(LabeledDataset(points=points, labels=labels), k)
    assert sum(c.support.shape[0] for c in model.components) == n
    tracemalloc.start()
    try:
        tree = build_mmdt(model, "exact-discrete")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    check_structure(tree, model.means())
    assert peak < 64 * 2**20


def test_minimize_threshold_symmetric_midpoint():
    m = gaussians([[0.0], [10.0]], [1.0])
    theta, value = minimize_threshold(m, [0, 1], 0, "chebyshev")
    assert theta == pytest.approx(5.0, abs=1e-6)
    assert value == pytest.approx(4.0 / 100.0, rel=1e-9)


def brute_force_threshold(model, comps, axis, objective, points_per_gap=10_000):
    # Two-stage grid scan (coarse pass, then a dense pass around the coarse
    # argmin); independent of the minimizer under test.
    proj = np.unique(model.means()[comps, axis])
    best = (np.inf, None)
    for a, b in zip(proj[:-1], proj[1:]):
        span = b - a
        inner = np.linspace(a, b, points_per_gap + 2)[1:-1]
        # the infimum can sit against a gap endpoint (clamped terms), so
        # probe the same open-interval closure the implementation can reach
        edges = [max(a + span * 1e-12, np.nextafter(a, b)), min(b - span * 1e-12, np.nextafter(b, a))]
        thetas = np.concatenate([edges[:1], inner, edges[1:]])
        vals = objective_value(model, comps, axis, thetas, objective)
        j = int(np.argmin(vals))
        lo = thetas[max(0, j - 1)]
        hi = thetas[min(thetas.size - 1, j + 1)]
        fine = np.linspace(lo, hi, points_per_gap)
        fvals = objective_value(model, comps, axis, fine, objective)
        jj = int(np.argmin(fvals))
        if fvals[jj] < best[0]:
            best = (float(fvals[jj]), float(fine[jj]))
    return best[1], best[0]


def test_minimize_threshold_equidistant_claim2():
    # equidistant means, equal sigma/weights: the minimized value matches a
    # dense grid to 1e-6 and respects the equidistant-formula bound
    k, sigma = 4, 0.05
    m = gaussians([[float(j)] for j in range(k)], [sigma])
    theta, value = minimize_threshold(m, list(range(k)), 0, "chebyshev")
    _, brute = brute_force_threshold(m, list(range(k)), 0, "chebyshev")
    assert value == pytest.approx(brute, abs=1e-6)
    r = k - 1.0
    delta = r / (2 * (k - 1))
    bound = (2.0 / k) * sum(sigma**2 / ((2 * j - 1) ** 2 * delta**2) for j in range(1, k // 2 + 1))
    assert value <= bound + 1e-12
    # for K=2 the optimum is exactly the midpoint and attains the formula
    m2 = gaussians([[0.0], [1.0]], [sigma])
    theta2, value2 = minimize_threshold(m2, [0, 1], 0, "chebyshev")
    assert theta2 == pytest.approx(0.5, abs=1e-9)
    assert value2 == pytest.approx(4.0 * sigma**2, rel=1e-9)  # (2/K) * sigma^2/delta^2


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_minimize_threshold_beats_largest_gap_midpoint(seed):
    rng = np.random.default_rng(seed)
    centers = np.sort(rng.uniform(0.0, 1.0, 5))
    if np.min(np.diff(centers)) < 1e-6:
        return
    m = gaussians([[c] for c in centers], [0.1])
    _, value = minimize_threshold(m, list(range(5)), 0, "chebyshev")
    gaps = np.diff(centers)
    g = int(np.argmax(gaps))
    midpoint = 0.5 * (centers[g] + centers[g + 1])
    assert value <= objective_value(m, list(range(5)), 0, float(midpoint), "chebyshev") + 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
@example(15)  # minimum inside a clamp zone, against a gap end
def test_ternary_matches_dense_grid(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 6))
    centers = np.sort(rng.uniform(-3.0, 3.0, k))
    if np.min(np.diff(centers)) < 1e-3:
        return
    sigma = float(rng.uniform(0.05, 0.8))
    weights = rng.dirichlet(np.full(k, 2.0))
    weights = np.maximum(weights, 0.05)
    weights /= weights.sum()
    m = gaussians([[c] for c in centers], [sigma], weights)
    m = MixtureModel.create(m.components, weights, alpha=k * float(weights.max()), sigma=[sigma])
    for objective in ("chebyshev", "gaussian"):
        _, value = minimize_threshold(m, list(range(k)), 0, objective)
        _, brute = brute_force_threshold(m, list(range(k)), 0, objective)
        assert value <= brute + 1e-9
        assert abs(value - brute) <= 1e-6


def test_minimize_threshold_gaussian_underflow_plateau():
    # 200 sigma apart, every tail term underflows to 0 over most of the gap;
    # the slope's sign still points at the balance point, the midpoint
    m = gaussians([[0.0], [200.0]], [1.0])
    theta, value = minimize_threshold(m, [0, 1], 0, "gaussian")
    assert theta == pytest.approx(100.0, rel=1e-9)
    assert value == 0.0
    a, b = 3.7, -41.0
    theta2, _ = minimize_threshold(scale_shift(m, [a], [b]), [0, 1], 0, "gaussian")
    assert theta2 == pytest.approx(a * theta + b, rel=1e-9)


def test_minimize_threshold_chebyshev_breakpoint():
    # sigma 1: the minimum lies on the piece between the breakpoints
    # mu_0 + sigma = 1 and mu_1 - sigma = 2.  At theta = 1 the slope is
    # negative on that piece and positive inside the clamp zone of mu_0, so
    # the slope there must be taken one-sided.
    m = gaussians([[0.0], [3.0]], [1.0], weights=[0.6, 0.4])
    theta, value = minimize_threshold(m, [0, 1], 0, "chebyshev")
    root = 3.0 / (1.0 + (0.4 / 0.6) ** (1.0 / 3.0))
    assert theta == pytest.approx(root, rel=1e-9)
    assert value == pytest.approx(0.6 / root**2 + 0.4 / (3.0 - root) ** 2, rel=1e-12)
    _, brute = brute_force_threshold(m, [0, 1], 0, "chebyshev")
    assert value <= brute + 1e-12
    assert value == pytest.approx(brute, abs=1e-6)


def test_minimize_threshold_rejects_means_one_ulp_apart():
    # no float lies strictly between the means, so no threshold is off them
    m = gaussians([[1.0], [float(np.nextafter(1.0, 2.0))]], [1.0])
    for objective in ("chebyshev", "gaussian"):
        with pytest.raises(ValidationError, match="strictly between"):
            minimize_threshold(m, [0, 1], 0, objective)


def test_build_mmdt_minimal_tree():
    m = gaussians([[0.0], [10.0]], [1.0])
    tree = build_mmdt(m, "gaussian")
    assert not tree.root.is_leaf
    assert tree.root.left.is_leaf and tree.root.right.is_leaf
    assert sorted(tree.leaves()) == [0, 1]


def test_build_mmdt_b3_root():
    inst = gen_b3(4)
    tree = build_mmdt(inst.model, "exact-discrete")
    assert tree.root.cut.axis == 0
    assert tree.root.cut.theta == pytest.approx(0.0, abs=1e-12)
    assert -0.5 < tree.root.cut.theta < 0.5


def test_build_mmdt_collinear_gaussians():
    m = gaussians([[0.0], [5.0], [10.0]], [1.0])
    tree = build_mmdt(m, "gaussian")
    thetas = sorted(
        node.cut.theta
        for node in (tree.root, tree.root.left, tree.root.right)
        if node is not None and not node.is_leaf
    )
    assert len(thetas) == 2
    assert abs(thetas[0] - 2.5) < 0.1 and abs(thetas[1] - 7.5) < 0.1


def test_build_rejects_incompatible_objective():
    m = gaussians([[0.0], [1.0]], [1.0])
    with pytest.raises(ValidationError):
        build_mmdt(m, "exact-discrete")
    with pytest.raises(ValidationError):
        build_mmdt(m, "nope")


def test_minimize_threshold_rejects_unknown_or_incompatible_objective():
    m = gaussians([[0.0], [4.0]], [1.0])
    with pytest.raises(ValidationError, match="objective must be one of"):
        minimize_threshold(m, [0, 1], 0, "nope")
    with pytest.raises(ValidationError, match="exact-discrete objective requires discrete components"):
        minimize_threshold(m, [0, 1], 0, "exact-discrete")
    inst = gen_thm4(2, 2)
    with pytest.raises(ValidationError, match="gaussian objective requires gaussian components"):
        minimize_threshold(inst.model, [0, 1], 0, "gaussian")
    with pytest.raises(ValidationError, match="objective must be one of"):
        objective_value(m, [0, 1], 0, 2.0, "nope")


def test_axis_tree_rejects_unknown_objective():
    root = TreeNode(cut=AxisCut(0, 1.5), left=TreeNode(leaf=0), right=TreeNode(leaf=1))
    with pytest.raises(ValidationError, match="objective must be one of"):
        AxisTree(root=root, dim=1, n_leaves=2, objective="nope")
    with pytest.raises(ValidationError, match="objective must be one of"):
        AxisTree.from_dict({**AxisTree(root=root, dim=1, n_leaves=2).to_dict(), "options": {"objective": "nope"}})


def test_predict_examples():
    m = gaussians([[0.0, 0.0], [4.0, 4.0], [8.0, -2.0]], [1.0, 1.0])
    tree = build_mmdt(m, "gaussian")
    for k in range(3):
        assert predict(tree, m.means()[k]) == k
    from mmdt.errors import IncompatibilityError

    with pytest.raises(IncompatibilityError):
        predict(tree, [0.0])


def test_predict_boundary_goes_left():
    from mmdt.tree import AxisCut, TreeNode

    tree = AxisTree(
        root=TreeNode(cut=AxisCut(0, 1.5), left=TreeNode(leaf=0), right=TreeNode(leaf=1)),
        dim=1,
        n_leaves=2,
    )
    assert predict(tree, [1.5]) == 0
    assert predict(tree, [1.5000001]) == 1


def test_thm4_support_routing():
    inst = gen_thm4(2, 4)
    tree = build_mmdt(inst.model, "exact-discrete")
    for k, comp in enumerate(inst.model.components):
        routed = assign_components(tree, comp.support)
        # only the single-axis deviation against the cut leaves the component
        mism = np.flatnonzero(routed != k)
        assert all(abs(comp.support[i][tree.root.cut.axis] - comp.mean[tree.root.cut.axis]) == 1.0 for i in mism)


def test_structural_invariants_battery():
    for i in range(60):
        model = gaussian_battery(i)
        tree = build_mmdt(model, "gaussian")
        check_structure(tree, model.means())
    for i in range(40):
        model = random_discrete_model(300 + i)
        tree = build_mmdt(model, "chebyshev")
        check_structure(tree, model.means())


def _leaf(k):
    return TreeNode(leaf=k)


def _cut(axis, theta, left, right):
    return TreeNode(cut=AxisCut(axis=axis, theta=theta), left=left, right=right)


# Component means (0, 0), (4, 0) and (4, 4); the valid tree cuts x1 <= 2,
# then x2 <= 2 on the right.  Two-component cases use the first two means.
_MEANS = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 4.0]])
_VALID = _cut(0, 2.0, _leaf(0), _cut(1, 2.0, _leaf(1), _leaf(2)))
_BAD_TREES = [
    pytest.param(2, _cut(0, 2.0, _leaf(1), _leaf(0)), id="two-leaves-swapped"),
    pytest.param(3, _cut(0, 2.0, _leaf(0), _cut(0, 1.0, _leaf(1), _leaf(2))), id="cut-below-cell"),
    pytest.param(3, _cut(0, 2.0, _leaf(0), _cut(0, 2.0, _leaf(1), _leaf(2))), id="cut-on-cell-edge"),
    pytest.param(3, _cut(1, 2.0, _cut(1, 3.0, _leaf(0), _leaf(1)), _leaf(2)), id="cut-above-cell"),
    pytest.param(3, _cut(0, 2.0, _leaf(0), _cut(1, 2.0, _leaf(1), _leaf(3))), id="leaf-index-k"),
    pytest.param(3, _cut(0, 2.0, _leaf(0), _cut(1, 2.0, _leaf(1), _leaf(1))), id="repeated-leaf"),
    pytest.param(3, _cut(0, 2.0, _leaf(0), _leaf(1)), id="component-without-leaf"),
]


def test_check_structure_accepts_the_valid_tree():
    check_structure(AxisTree(root=_VALID, dim=2, n_leaves=3), _MEANS)


@pytest.mark.parametrize("k, root", _BAD_TREES)
def test_check_structure_rejects_bad_trees(k, root):
    with pytest.raises(ValidationError):
        check_structure(AxisTree(root=root, dim=2, n_leaves=k), _MEANS[:k])


def test_check_structure_rejects_means_of_another_dimension():
    with pytest.raises(IncompatibilityError):
        check_structure(AxisTree(root=_VALID, dim=2, n_leaves=3), np.zeros((3, 3)))


def test_build_determinism():
    model = gaussian_battery(7)
    a = build_mmdt(model, "gaussian")
    b = build_mmdt(model, "gaussian")
    import json

    assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_affine_equivariance(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 5))
    d = int(rng.integers(2, 5))
    means = rng.normal(scale=5.0, size=(k, d))
    sigma = rng.uniform(0.2, 1.0, size=d)
    m = MixtureModel.create(
        tuple(Component.gaussian(means[j], sigma) for j in range(k)),
        np.full(k, 1.0 / k),
        sigma=sigma,
    )
    a = rng.uniform(0.2, 4.0, size=d)
    b = rng.normal(scale=2.0, size=d)
    mapped = scale_shift(m, a, b)
    for objective in ("chebyshev", "gaussian"):
        t1 = build_mmdt(m, objective)
        t2 = build_mmdt(mapped, objective)

        def walk(n1, n2):
            assert n1.is_leaf == n2.is_leaf
            if n1.is_leaf:
                assert n1.leaf == n2.leaf
                return
            assert n1.cut.axis == n2.cut.axis
            expected = a[n1.cut.axis] * n1.cut.theta + b[n1.cut.axis]
            scale = max(1.0, abs(expected))
            assert abs(n2.cut.theta - expected) <= 1e-6 * scale
            walk(n1.left, n2.left)
            walk(n1.right, n2.right)

        walk(t1.root, t2.root)


def test_tree_json_round_trip_and_dot():
    model = gaussian_battery(3)
    tree = build_mmdt(model, "gaussian")
    clone = AxisTree.from_dict(tree.to_dict())
    assert clone.to_dict() == tree.to_dict()
    dot = export_dot(tree)
    assert dot.startswith("digraph") and "x" in dot and "component" in dot
