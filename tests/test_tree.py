import dataclasses
import hashlib
import json
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
from mmdt.io import dumps_json
from mmdt import tree as tree_module
from mmdt.tree import (
    AxisCut,
    _Slope,
    _midpoint_candidates,
    _search_level,
    assign_components,
    check_structure,
    export_dot,
    normal_upper_tail,
)

from conftest import DATA_DIR, gaussian_battery, random_discrete_model, scale_shift
from oracles import bisect_roots, moved_thresholds, node_depths


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


def test_minimize_threshold_rejects_nodes_of_fewer_than_two_components():
    m = gaussians([[0.0], [4.0], [9.0]], [1.0])
    disc = gen_thm4(2, 2).model
    for model, objective in ((m, "chebyshev"), (m, "gaussian"), (disc, "exact-discrete")):
        for comps in ([], [0]):
            with pytest.raises(ValidationError, match="two distinct projected means"):
                minimize_threshold(model, comps, 0, objective)
        with pytest.raises(ValidationError, match="no components"):
            objective_value(model, [], 0, 0.5, objective)


@pytest.mark.parametrize("objective", ["chebyshev", "gaussian"])
def test_minimize_threshold_value_is_objective_value(objective):
    # The search values its candidates as objective_value does, bit for bit.
    model = wide_build_mixture()
    for comps, axis in (([3, 41], 5), (list(range(10, 17)), 0), (list(range(30, 60)), 17), (list(range(100)), 2)):
        theta, value = minimize_threshold(model, comps, axis, objective)
        assert value == objective_value(model, comps, axis, theta, objective)
        assert objective_value(model, comps, axis, np.array([[theta]]), objective)[0, 0] == value


def test_build_mmdt_minimal_tree():
    m = gaussians([[0.0], [10.0]], [1.0])
    tree = build_mmdt(m, "gaussian")
    cut, left, right = tree.nodes
    assert isinstance(cut, AxisCut) and tree.right == (2, 0, 0)
    assert sorted((left, right)) == sorted(tree.leaves()) == [0, 1]


def test_build_mmdt_b3_root():
    inst = gen_b3(4)
    tree = build_mmdt(inst.model, "exact-discrete")
    assert tree.nodes[0].axis == 0
    assert tree.nodes[0].theta == pytest.approx(0.0, abs=1e-12)
    assert -0.5 < tree.nodes[0].theta < 0.5


def test_build_mmdt_collinear_gaussians():
    m = gaussians([[0.0], [5.0], [10.0]], [1.0])
    tree = build_mmdt(m, "gaussian")
    thetas = sorted(node.theta for node in tree.nodes if not isinstance(node, int))
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
    nodes = [AxisCut(0, 1.5), 0, 1]
    with pytest.raises(ValidationError, match="objective must be one of"):
        AxisTree(nodes=nodes, dim=1, objective="nope")
    with pytest.raises(ValidationError, match="objective must be one of"):
        AxisTree.from_dict({**AxisTree(nodes=nodes, dim=1).to_dict(), "options": {"objective": "nope"}})


def test_predict_examples():
    m = gaussians([[0.0, 0.0], [4.0, 4.0], [8.0, -2.0]], [1.0, 1.0])
    tree = build_mmdt(m, "gaussian")
    for k in range(3):
        assert predict(tree, m.means()[k]) == k
    from mmdt.errors import IncompatibilityError

    with pytest.raises(IncompatibilityError):
        predict(tree, [0.0])


def test_predict_boundary_goes_left():
    tree = AxisTree(nodes=[AxisCut(0, 1.5), 0, 1], dim=1)
    assert predict(tree, [1.5]) == 0
    assert predict(tree, [1.5000001]) == 1


def test_thm4_support_routing():
    inst = gen_thm4(2, 4)
    tree = build_mmdt(inst.model, "exact-discrete")
    for k, comp in enumerate(inst.model.components):
        routed = assign_components(tree, comp.support)
        # only the single-axis deviation against the cut leaves the component
        mism = np.flatnonzero(routed != k)
        assert all(abs(comp.support[i][tree.nodes[0].axis] - comp.mean[tree.nodes[0].axis]) == 1.0 for i in mism)


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
    return [k]


def _cut(axis, theta, left, right):
    return [AxisCut(axis=axis, theta=theta), *left, *right]


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
    check_structure(AxisTree(nodes=_VALID, dim=2), _MEANS)


@pytest.mark.parametrize("k, nodes", _BAD_TREES)
def test_check_structure_rejects_bad_trees(k, nodes):
    with pytest.raises(ValidationError):
        check_structure(AxisTree(nodes=nodes, dim=2), _MEANS[:k])


def test_leaf_count_is_read_from_the_leaves():
    tree = AxisTree(nodes=_VALID, dim=2)
    pruned = dataclasses.replace(tree, nodes=tree.nodes[tree.right[0]:])
    assert (tree.n_leaves, pruned.n_leaves, pruned.to_dict()["n_leaves"]) == (3, 2, 2)


def wide_build_pool(seed: int = 0) -> list[MixtureModel]:
    """The four K=100, d=50 mixtures of the wide-build benchmark pool: means
    uniform in a box 60 stddevs wide, stddevs in [0.5, 1.5]."""
    rng = np.random.default_rng([seed, 2])
    pool = []
    for _ in range(4):
        means = rng.uniform(-30.0, 30.0, (100, 50))
        stds = rng.uniform(0.5, 1.5, (100, 50))
        w = rng.uniform(0.5, 1.5, 100)
        pool.append(MixtureModel.create(tuple(Component.gaussian(means[j], stds[j]) for j in range(100)), w / w.sum()))
    return pool


def wide_build_mixture(seed: int = 0) -> MixtureModel:
    """The first mixture of the wide-build benchmark pool."""
    return wide_build_pool(seed)[0]


def internal_nodes(tree, means):
    """(components, cut) of every internal node, top down."""
    stack = [(0, list(range(tree.n_leaves)))]
    while stack:
        i, comps = stack.pop()
        cut = tree.nodes[i]
        if isinstance(cut, int):
            continue
        yield comps, cut
        left = [k for k in comps if means[k, cut.axis] <= cut.theta]
        stack += [(i + 1, left), (tree.right[i], [k for k in comps if k not in left])]


@pytest.mark.parametrize("objective", ["chebyshev", "gaussian"])
def test_build_thetas_equal_standalone_search(objective):
    # Nodes of one level share a root search; each node's theta must still be
    # bit-equal to the search over that node alone.
    for model in [gaussian_battery(i) for i in range(60)] + [wide_build_mixture()]:
        tree = build_mmdt(model, objective)
        for comps, cut in internal_nodes(tree, model.means()):
            assert minimize_threshold(model, comps, cut.axis, objective)[0] == cut.theta


@pytest.mark.parametrize("objective", ["chebyshev", "gaussian"])
def test_level_search_is_independent_of_neighbours(objective):
    # Nodes of widths 2, 7, 30 and 100 on different axes: in one batch each
    # node's terms sit beside the others', and it must find what it finds
    # alone, in either order.
    model = wide_build_mixture()
    nodes = [([3, 41], 5), (list(range(10, 17)), 0), (list(range(30, 60)), 17), (list(range(100)), 2)]
    together = _search_level(model, nodes, objective)
    for node, found in zip(nodes, together):
        assert _search_level(model, [node], objective) == [found]
    assert _search_level(model, nodes[::-1], objective)[::-1] == together


@pytest.mark.parametrize("objective", ["chebyshev", "gaussian"])
def test_level_search_raises_for_a_node_it_cannot_split(objective):
    # A node with no float strictly between its means, or with one distinct
    # projected mean, fails a batch of ordinary nodes as it fails alone.
    rng = np.random.default_rng(3)
    means = rng.uniform(-10.0, 10.0, (10, 2))
    means[:2, 0] = [1.0, np.nextafter(1.0, 2.0)]
    means[2:4, 0] = 5.0
    model = gaussians(means, [1.0, 1.0])
    ordinary = [(list(range(4, 10)), 0), (list(range(10)), 1), ([0, 1], 1)]
    for bad, match in (([0, 1], "strictly between"), ([2, 3], "two distinct projected means")):
        with pytest.raises(ValidationError, match=match):
            _search_level(model, [(bad, 0)], objective)
        for at in range(len(ordinary) + 1):
            with pytest.raises(ValidationError, match=match):
                _search_level(model, ordinary[:at] + [(bad, 0)] + ordinary[at:], objective)


# sha256 of the tree JSON, as `build` writes it, for each mixture of the
# seed-0 wide-build pool: the benchmark's output digests of its trees.  A
# change that moves any bit of these trees must re-record the digests and
# declare the moved thresholds.  They were re-recorded when model_fingerprint
# moved to array_fingerprint; no other byte of the trees moved.
# mix1-gaussian was re-recorded when the root search moved from bisection to
# Newton probes: one theta moved by 73 ulps, where bisection had run into its
# 64-probe cap without closing the bracket.  All eight were re-recorded when
# tree JSON moved to format 2 (one pre-order node list), with no axis,
# threshold or leaf moved against tests/data/recorded_trees.json, which
# holds the format-1 root node of every tree recorded here, so that a
# failure lists the thresholds that moved.
_WIDE_BUILD_TREE_SHA256 = {
    "mix0-chebyshev": "19ccdd9e3182b1e82ef978a038b1f9d7a1fd544458ae1afa43554e8b7aa4e45f",
    "mix0-gaussian": "7f7a8c8fbb8d6c7c4214255a3012c4ca4feeec48b31226a6b080f1c7af807d94",
    "mix1-chebyshev": "aae19efdbc30ccbef618b48755fbef8e208fafa11faec6613dae259a7a4d37a9",
    "mix1-gaussian": "e5172876095e7dd850d2966f4913f6e88b93b5f4482819296863e60a29767086",
    "mix2-chebyshev": "09035ef2e0adbf11dbbbbaa24a096b775c693d9425d210f79e99e5f450ab0799",
    "mix2-gaussian": "f34d03d7e87bc48f1621d728f8bb1947a9dd53c3d9fc7d818dc09ae388e614ef",
    "mix3-chebyshev": "eb92158fa46087d1e7506102e51d9b09fada9c1d495a93be866a0df2b5ecc926",
    "mix3-gaussian": "473e789ef52d48217770de6e98039e551684d56ce0bc085ea81c80b9ec6e93c4",
}


def test_wide_build_trees_are_byte_identical():
    recorded = json.loads((DATA_DIR / "recorded_trees.json").read_text())["wide-build"]
    digests, moved = {}, {}
    for m, model in enumerate(wide_build_pool(0)):
        for objective in ("chebyshev", "gaussian"):
            name, tree = f"mix{m}-{objective}", build_mmdt(model, objective).to_dict()
            digests[name] = hashlib.sha256(dumps_json(tree).encode("utf-8")).hexdigest()
            if digests[name] != _WIDE_BUILD_TREE_SHA256[name]:
                moved[name] = moved_thresholds(recorded[name], tree)
    assert digests == _WIDE_BUILD_TREE_SHA256, f"(node index, axis, old theta, new theta, ulps): {moved}"


def test_slope_adds_each_piece_in_list_order():
    # A one followed by terms below half its ulp: added in turn, each is
    # lost; summed pairwise (numpy's order for a long row), they count.
    rng = np.random.default_rng(5)
    pieces = []
    for width in rng.permutation(np.arange(1, 101)):
        terms = rng.uniform(0.5, 1.0, width) * 1e-16
        terms[0] = 1.0
        pieces.append(terms)

    def in_order(terms):
        total = 0.0
        for term in terms:
            total += term
        return total

    def slopes(chosen):
        # chebyshev terms -coef / u^3 with u = (0 - (-1)) / 1 = 1
        coef = np.concatenate(chosen)
        n = coef.size
        slope = _Slope.ragged((np.full(n, -1.0), np.ones(n), coef, None, coef), np.array([c.size for c in chosen]))
        return (-slope(np.zeros(len(chosen)))[0]).tolist()

    assert any(in_order(terms) != np.sum(terms) for terms in pieces)
    for terms in pieces:
        assert slopes([terms]) == [in_order(terms)]
    for chosen in (pieces, pieces[::-1], pieces[::3] + pieces[1::3]):
        assert slopes(chosen) == [in_order(terms) for terms in chosen]


@pytest.mark.parametrize("objective", ["chebyshev", "gaussian"])
def test_build_runs_one_root_search_per_level(monkeypatch, objective):
    # Work guard in passes, not seconds: one bracket construction and one
    # root search per tree level, and slope passes (``__call__`` and
    # ``newton``) bounded by the two end-slope passes of a level plus 15
    # probes.  Measured: 156 and 144 passes over 13 and 12 levels, at most
    # 14 probes in a level; bisection took about 58 probes per level.
    counts = {"brackets": 0, "searches": 0, "slopes": 0}
    brackets, search = tree_module._level_brackets, tree_module._slope_roots
    slope, newton = tree_module._Slope.__call__, tree_module._Slope.newton

    def counting_brackets(*args):
        counts["brackets"] += 1
        return brackets(*args)

    def counting_search(*args):
        counts["searches"] += 1
        return search(*args)

    def counting_slope(self, t):
        counts["slopes"] += 1
        return slope(self, t)

    def counting_newton(self, t, work):
        counts["slopes"] += 1
        return newton(self, t, work)

    monkeypatch.setattr(tree_module, "_level_brackets", counting_brackets)
    monkeypatch.setattr(tree_module, "_slope_roots", counting_search)
    monkeypatch.setattr(tree_module._Slope, "__call__", counting_slope)
    monkeypatch.setattr(tree_module._Slope, "newton", counting_newton)
    model = wide_build_mixture()
    tree = build_mmdt(model, objective)
    levels = max(node_depths(tree))  # the deepest leaf's depth: one level per cut above it
    assert counts["brackets"] == levels
    assert counts["searches"] == levels
    assert counts["slopes"] <= levels * (2 + 15)


def _certified(slope, roots):
    """Where the slope is <= 0 at a root and > 0 one float above it."""
    return (slope(roots)[0] <= 0) & (slope(np.nextafter(roots, np.inf))[0] > 0)


def _random_slope(rng, objective, far=False):
    """A ragged slope of 40 pieces of 1 to 30 terms, and a threshold per
    piece; ``far`` puts every gaussian threshold 80 to 200 s_j from every
    mean of its piece, where all its terms underflow."""
    sizes = rng.integers(1, 31, 40)
    n = int(sizes.sum())
    proj = rng.uniform(-30.0, 30.0, n)
    w = rng.uniform(0.5, 1.5, n)
    t = rng.uniform(-40.0, 40.0, sizes.size)
    if objective == "chebyshev":
        scale = np.repeat(rng.uniform(0.5, 2.0, sizes.size), sizes)
        coef = np.where(rng.random(n) < 0.8, w, 0.0)
        return _Slope.ragged((proj, scale, coef, None, w), sizes), t
    scale = rng.uniform(0.5, 1.5, n)
    if far:
        sign = rng.choice([-1.0, 1.0], n)
        proj = np.repeat(t, sizes) + sign * scale * rng.uniform(80.0, 200.0, n)
    else:
        sign = np.where(proj > np.repeat(t, sizes), 1.0, -1.0)
    coef = np.log(w / scale) - 0.5 * np.log(2.0 * np.pi)
    return _Slope.ragged((proj, scale, coef, sign, w), sizes), t


@pytest.mark.parametrize("objective, far", [("chebyshev", False), ("gaussian", False), ("gaussian", True)])
def test_newton_pass_slope_is_the_call_bit_for_bit(objective, far):
    # The root search reads its signs from ``newton``; they must be the
    # certificate's signs, so ``newton`` must give ``__call__``'s bits, also
    # where every gaussian term underflows and only the shift keeps the sign.
    rng = np.random.default_rng(11)
    for _ in range(20):
        slope, t = _random_slope(rng, objective, far)
        work = slope.workspace()
        for probe in (t, t + rng.uniform(-0.5, 0.5, t.size)):  # the workspace is reused
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                value, _ = slope.newton(probe, work)
            assert value.tobytes() == slope(probe)[0].tobytes()
    if far:
        assert np.all(np.exp(slope.coef - 0.5 * ((slope.proj - np.repeat(t, slope.sizes)) / slope.scale) ** 2) == 0.0)
        assert np.all(slope(t)[0] != 0.0)


def _captured_searches(monkeypatch, builds):
    """(slope, lower ends, upper ends, roots) of every root search the
    builds run."""
    searches = []
    search = tree_module._slope_roots

    def capturing(slope, a, b):
        roots = search(slope, a, b)
        searches.append((slope, a, b, roots))
        return roots

    monkeypatch.setattr(tree_module, "_slope_roots", capturing)
    for model, objective in builds:
        build_mmdt(model, objective)
    return searches


def test_roots_are_certified_wherever_bisection_certifies(monkeypatch):
    models = [gaussian_battery(i) for i in range(60)] + wide_build_pool(0)
    builds = [(model, objective) for model in models for objective in ("chebyshev", "gaussian")]
    certified = 0
    for slope, a, b, roots in _captured_searches(monkeypatch, builds):
        bisected, _ = bisect_roots(slope, a, b)
        assert np.all(slope(roots)[0] <= 0)
        by_bisection = _certified(slope, bisected)
        assert np.all(_certified(slope, roots)[by_bisection])
        certified += int(by_bisection.sum())
    assert certified > 3_000  # 3,314 brackets


@pytest.mark.parametrize("objective", ["chebyshev", "gaussian"])
@pytest.mark.parametrize("eps", [5e-5, -1.5e-4, 4e-8, 3e-4])
def test_root_near_zero_closes_within_the_cap(monkeypatch, objective, eps):
    # Means -1 and 1 with weights 1/2 +- eps put the slope's root within
    # 1e-3 of zero.  Bisection from the bracket's midpoint, 0.0, must then
    # halve a width of about 1 down to an ulp of the root; the Newton probes
    # close the bracket in far fewer passes.
    probes = []
    newton = tree_module._Slope.newton

    def counting(self, t, work):
        probes.append(t)
        return newton(self, t, work)

    monkeypatch.setattr(tree_module._Slope, "newton", counting)
    model = gaussians([[-1.0], [1.0]], [0.5], [0.5 + eps, 0.5 - eps])
    [(slope, a, b, roots)] = _captured_searches(monkeypatch, [(model, objective)])
    assert roots.size == 1 and abs(roots[0]) < 1e-3
    assert np.all(_certified(slope, roots))
    assert len(probes) < tree_module._MAX_PROBES


def test_check_structure_rejects_means_of_another_dimension():
    with pytest.raises(IncompatibilityError):
        check_structure(AxisTree(nodes=_VALID, dim=2), np.zeros((3, 3)))


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

        assert len(t1.nodes) == len(t2.nodes)
        for n1, n2 in zip(t1.nodes, t2.nodes):
            assert isinstance(n1, int) == isinstance(n2, int)
            if isinstance(n1, int):
                assert n1 == n2
                continue
            assert n1.axis == n2.axis
            expected = a[n1.axis] * n1.theta + b[n1.axis]
            scale = max(1.0, abs(expected))
            assert abs(n2.theta - expected) <= 1e-6 * scale


def test_tree_json_round_trip_and_dot():
    model = gaussian_battery(3)
    tree = build_mmdt(model, "gaussian")
    clone = AxisTree.from_dict(tree.to_dict())
    assert clone.to_dict() == tree.to_dict()
    dot = export_dot(tree)
    assert dot.startswith("digraph") and "x" in dot and "component" in dot
