import math
import warnings

import numpy as np
import pytest

from mmdt import (
    Component,
    KernelSpec,
    MixtureModel,
    ValidationError,
    beta_estimate,
    build_kernel_mmdt,
    build_mmdt,
    evaluate_tree,
    exact_error_rate_gaussian,
    kernel_price,
    kernel_stats,
    sample,
    thm1_bound,
    thm3_bound,
    with_bounds,
)
from mmdt.adversarial import gen_b3, gen_thm4
from mmdt.errors import IncompatibilityError
from mmdt.evaluate import BOUND_CONSTANT, weighted_median
from mmdt.tree import assign_components, check_fits, leaf_cells
from mmdt.tree import AxisCut, AxisTree

from conftest import gaussian_battery, random_discrete_model
from oracles import b3_canonical_tree, enumerate_valid_trees, thm4_canonical_tree


def test_weighted_median():
    assert weighted_median(np.array([3.0, 1.0, 2.0]), np.array([1.0, 1.0, 1.0])) == 2.0
    # lower median at exact half mass
    assert weighted_median(np.array([0.0, 1.0]), np.array([0.5, 0.5])) == 0.0
    assert weighted_median(np.array([0.0, 1.0]), np.array([0.25, 0.75])) == 1.0


def test_exact_eval_b3():
    inst = gen_b3(4)
    rep = evaluate_tree(inst.model, b3_canonical_tree(inst))
    assert rep.price_l1 == pytest.approx(1.25, abs=1e-12)
    assert rep.error_rate == pytest.approx(1.0 / 8.0, abs=1e-12)
    assert rep.baseline_cost == pytest.approx(1.0, abs=1e-12)
    assert rep.confidence_radius == 0.0


def test_exact_eval_thm4_canonical():
    # the canonical ordered-separation tree attains the enumeration optimum,
    # which sits above the (K-1)/(4q) floor
    inst = gen_thm4(2, 2)
    rep = evaluate_tree(inst.model, thm4_canonical_tree(inst))
    assert rep.error_rate == pytest.approx(inst.targets["canonical_error"], abs=1e-12)
    errors = [evaluate_tree(inst.model, t).error_rate for t in enumerate_valid_trees(inst.model)]
    assert min(errors) == pytest.approx(rep.error_rate, abs=1e-12)
    assert min(errors) >= inst.targets["floor"] - 1e-12


def test_exact_eval_point_masses():
    comps = (
        Component.discrete([[0.0, 0.0]], [1.0]),
        Component.discrete([[5.0, 1.0]], [1.0]),
    )
    m = MixtureModel.create(comps, [0.4, 0.6], alpha=1.2)
    tree = AxisTree(
        nodes=[AxisCut(0, 2.0), 0, 1],
        dim=2,
    )
    rep = evaluate_tree(m, tree)
    assert rep.price_l1 == 1.0
    assert rep.error_rate == 0.0
    assert rep.price_l2sq == 1.0


def test_exact_eval_median_beats_assigned_means():
    for i in range(25):
        model = random_discrete_model(900 + i)
        tree = build_mmdt(model, "exact-discrete")
        rep = evaluate_tree(model, tree)
        # leaf medians are coordinate-wise optimal for the l1 cost
        assert rep.price_l1 <= rep.price_l1_hat + 1e-12
        assert rep.tree_cost <= rep.price_l1_hat * rep.baseline_cost + 1e-12


def test_mc_eval_well_separated():
    m = MixtureModel.create(
        (Component.gaussian([-10.0], [1.0]), Component.gaussian([10.0], [1.0])), [0.5, 0.5]
    )
    tree = build_mmdt(m, "gaussian")
    rep = evaluate_tree(m, tree, 100_000, seed=17)
    assert 1.0 - 3 * rep.confidence_radius <= rep.price_l1 <= 1.01
    rep2 = evaluate_tree(m, tree, 100_000, seed=17)
    assert rep.to_dict() == rep2.to_dict()


def test_mc_eval_requires_min_samples():
    m = MixtureModel.create(
        (Component.gaussian([-1.0], [1.0]), Component.gaussian([1.0], [1.0])), [0.5, 0.5]
    )
    tree = build_mmdt(m, "gaussian")
    with pytest.raises(ValidationError):
        evaluate_tree(m, tree, 50, seed=0)


@pytest.mark.filterwarnings("ignore:component self-similarities differ")
def test_evaluate_tree_model_decides_the_path():
    # Exact when every component is discrete, at any n and seed; MC as soon
    # as one is not, with the one sample-size check of both tree kinds.
    model = random_discrete_model(905)
    tree = build_mmdt(model, "exact-discrete")
    exact = evaluate_tree(model, tree).to_dict()
    assert exact["mc_samples"] == 0 and exact["mc_seed"] == 0
    for n, seed in ((50, 7), (5000, 4)):
        assert evaluate_tree(model, tree, n, seed).to_dict() == exact
    comps = (Component.gaussian(model.components[0].mean, np.full(model.dim, 0.5)),) + model.components[1:]
    mixed = MixtureModel.create(comps, model.weights)
    rep = evaluate_tree(mixed, tree, 1000, seed=4)
    assert (rep.mc_samples, rep.mc_seed) == (1000, 4)
    ker = KernelSpec.uniform("gaussian", 0.5, model.dim)
    kernel_tree = build_kernel_mmdt(mixed, ker, kernel_stats(mixed, ker))
    messages = set()
    for call in (lambda: evaluate_tree(mixed, tree, 99, 0), lambda: kernel_price(mixed, kernel_tree, 99, 0)):
        with pytest.raises(ValidationError, match="n >= 100") as caught:
            call()
        messages.add(str(caught.value))
    assert len(messages) == 1


def test_mc_eval_vacuous_cut_no_errors():
    # three point-mass components; every cut avoids all data mass
    comps = tuple(Component.discrete([[float(v)]], [1.0]) for v in (0.0, 10.0, 20.0))
    m = MixtureModel.create(comps, [1 / 3] * 3)
    tree = AxisTree(nodes=[AxisCut(0, 9.0), 0, AxisCut(0, 15.0), 1, 2], dim=1)
    rep = evaluate_tree(m, tree, 5000, seed=0)
    assert rep.error_rate == 0.0
    assert rep.price_l1 == pytest.approx(1.0)


def test_mc_eval_empty_leaf_fallback():
    # a sliver leaf that no sample reaches falls back to its component mean
    comps = (
        Component.gaussian([0.0], [0.01]),
        Component.gaussian([100.0], [0.01]),
        Component.gaussian([200.0], [0.01]),
    )
    m = MixtureModel.create(comps, [0.5, 0.25, 0.25], alpha=1.5)
    tree = AxisTree(nodes=[AxisCut(0, 50.0), AxisCut(0, -90.0), 1, 0, 2], dim=1)
    rep = evaluate_tree(m, tree, 2000, seed=3)
    assert 1 in rep.fallback_leaves


@pytest.mark.parametrize("n", [100, 111, 112, 3001])
def test_mc_eval_leaf_medians_are_lower_rank_medians(n):
    # Every MC sample weighs the same: leaf medians are the order statistic
    # of rank ceil(m/2) - 1.  A float cumulative-sum search over weights 1/n
    # lands one rank too high at n = 111 and 112 here.
    m = MixtureModel.create(
        (Component.gaussian([-1.0, 0.0], [1.0, 2.0]), Component.gaussian([1.5, 1.0], [1.0, 1.0])),
        [0.5, 0.5],
    )
    tree = build_mmdt(m, "gaussian")
    rep = evaluate_tree(m, tree, n, seed=8)
    pts = sample(m, n, 8).points
    leaf = assign_components(tree, pts)
    medians = np.array([
        np.sort(pts[leaf == k], axis=0)[((leaf == k).sum() + 1) // 2 - 1] for k in range(2)
    ])
    assert rep.tree_cost == float(np.abs(pts - medians[leaf]).sum(axis=1).mean())


def test_mc_convergence_doubling():
    m = MixtureModel.create(
        (Component.gaussian([-2.0, 0.0], [1.0, 1.0]), Component.gaussian([2.0, 1.0], [1.0, 1.0])),
        [0.5, 0.5],
    )
    tree = build_mmdt(m, "gaussian")
    r1 = evaluate_tree(m, tree, 50_000, seed=21)
    r2 = evaluate_tree(m, tree, 100_000, seed=22)
    assert abs(r1.price_l1 - r2.price_l1) < r1.confidence_radius + r2.confidence_radius


def test_price_l2sq_examples():
    comps = (
        Component.discrete([[0.0, 0.0]], [1.0]),
        Component.discrete([[5.0, 1.0]], [1.0]),
    )
    point = MixtureModel.create(comps, [0.5, 0.5])
    tree = AxisTree(
        nodes=[AxisCut(0, 2.0), 0, 1],
        dim=2,
    )
    assert evaluate_tree(point, tree).price_l2sq == 1.0

    far = MixtureModel.create(
        (Component.gaussian([-20.0, 0.0], [1.0, 1.0]), Component.gaussian([20.0, 0.0], [1.0, 1.0])),
        [0.5, 0.5],
    )
    ftree = build_mmdt(far, "gaussian")
    val = evaluate_tree(far, ftree, 50_000, seed=2).price_l2sq
    ref = evaluate_tree(far, ftree, 200_000, seed=3).price_l2sq
    assert val == pytest.approx(ref, abs=0.02)
    assert val == pytest.approx(1.0, abs=0.02)

    inst = gen_b3(4)
    rep = evaluate_tree(inst.model, b3_canonical_tree(inst))
    # brute-force the exact squared-l2 ratio over the 16-point support
    pts, w, comp = [], [], []
    for k, c in enumerate(inst.model.components):
        for row, mass in zip(c.support, c.mass):
            pts.append(row)
            w.append(0.5 * mass)
            comp.append(k)
    pts, w, comp = np.array(pts), np.array(w), np.array(comp)
    side = pts[:, 0] > 0.0
    centers = {}
    for leaf, mask in ((0, side), (1, ~side)):
        centers[leaf] = (w[mask][:, None] * pts[mask]).sum(axis=0) / w[mask].sum()
    means = inst.model.means()
    base = float(w @ ((pts - means[comp]) ** 2).sum(axis=1))
    cost = float(
        w @ ((pts - np.where(side[:, None], centers[0], centers[1])) ** 2).sum(axis=1)
    )
    assert rep.price_l2sq == pytest.approx(cost / base, abs=1e-12)


def test_mc_price_l2sq_baseline_comes_from_the_components():
    # sigma is an optional JSON field, and the tree here is fixed: it must
    # not move the squared-l2 price.
    comps = (Component.gaussian([0.0, 0.0], [1.0, 2.0]), Component.gaussian([6.0, 1.0], [1.0, 2.0]))
    tree = AxisTree(
        nodes=[AxisCut(0, 3.0), 0, 1],
        dim=2,
    )
    pooled = evaluate_tree(MixtureModel.create(comps, [0.5, 0.5]), tree, 20_000, seed=1)
    given = evaluate_tree(MixtureModel.create(comps, [0.5, 0.5], sigma=[3.0, 3.0]), tree, 20_000, seed=1)
    assert given.price_l2sq == pooled.price_l2sq
    assert given.price_l1 == pooled.price_l1
    assert pooled.price_l2sq == pytest.approx(1.0, abs=0.05)
    # a zero-noise model has no cost on either side: a zero-cost tree prices at 1
    atoms = (Component.discrete([[0.0, 0.0]], [1.0]), Component.discrete([[6.0, 1.0]], [1.0]))
    points = MixtureModel.create(atoms, [0.5, 0.5])
    assert evaluate_tree(points, tree, 1000, seed=1).price_l2sq == 1.0


def test_thm1_bound_examples():
    c = BOUND_CONSTANT
    q = (2.0 * c) ** 2
    assert thm1_bound(1.0, 1.0, 2, q) == pytest.approx(2.0, rel=1e-12)
    assert thm1_bound(1.0, 1.0, 3, 1e4) == pytest.approx(1.0 + c * 6.0 / 100.0, rel=1e-12)
    assert thm1_bound(1.0, 1.0, 3, 1e4) == pytest.approx(1.6348, abs=1e-4)
    # monotone decreasing in q
    assert thm1_bound(1.0, 1.0, 2, 1e8) < thm1_bound(1.0, 1.0, 2, 1e4)
    assert thm1_bound(1.0, 1.0, 2, 1e12) == pytest.approx(1.0, abs=1e-4)
    with pytest.raises(ValidationError):
        thm1_bound(1.0, 1.0, 2, 0.0)


def test_thm3_bound_examples():
    assert thm3_bound(1.0, 2, 100.0) == pytest.approx(0.21159, abs=1e-5)
    assert thm3_bound(1.0, 2, 1e12) == pytest.approx(0.0, abs=1e-9)
    assert thm3_bound(1.0, 5, 10.0) == 1.0  # clamp
    with pytest.raises(ValidationError):
        thm3_bound(1.0, 2, -1.0)


def test_thm4_floor_examples():
    # The error floor (K-1)/(4q) that gen_thm4 states with its instance.
    assert gen_thm4(2, 2).targets["floor"] == pytest.approx(0.125)
    assert gen_thm4(5, 5).targets["floor"] == pytest.approx(0.2)
    assert gen_thm4(2, 10**9).targets["floor"] == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(ValidationError, match="q >= K"):
        gen_thm4(5, 4)


def test_beta_estimate_examples():
    gauss = MixtureModel.create(
        (Component.gaussian([0.0], [2.0]), Component.gaussian([7.0], [2.0])), [0.5, 0.5]
    )
    assert beta_estimate(gauss) == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-12)
    twopoint = MixtureModel.create(
        (
            Component.discrete([[1.0], [-1.0]], [0.5, 0.5]),
            Component.discrete([[11.0], [9.0]], [0.5, 0.5]),
        ),
        [0.5, 0.5],
    )
    assert beta_estimate(twopoint) == pytest.approx(1.0, rel=1e-12)
    for q in (4, 9):
        inst = gen_thm4(2, q)
        assert beta_estimate(inst.model) == pytest.approx(math.sqrt(q), rel=1e-9)


def test_with_bounds_attaches_values():
    m = MixtureModel.create(
        (Component.gaussian([-5.0], [1.0]), Component.gaussian([5.0], [1.0])), [0.5, 0.5]
    )
    tree = build_mmdt(m, "gaussian")
    rep = with_bounds(evaluate_tree(m, tree, 1000, seed=0), m)
    assert set(rep.bounds) == {"thm1", "thm3", "enr", "beta"}
    assert rep.bounds["enr"] == pytest.approx(100.0)


def test_exact_error_rate_gaussian_matches_mc():
    m = MixtureModel.create(
        (Component.gaussian([-1.5, 0.0], [1.0, 1.0]), Component.gaussian([1.5, 0.5], [1.0, 1.0])),
        [0.5, 0.5],
    )
    tree = build_mmdt(m, "gaussian")
    exact = exact_error_rate_gaussian(m, tree)
    rep = evaluate_tree(m, tree, 200_000, seed=33)
    assert exact == pytest.approx(rep.error_rate, abs=0.01)
    assert 0.0 < exact < 1.0


def _cancelling_error_rate(model, tree):
    """Reference: one minus the in-cell masses, one math.erf call per element."""

    def norm_cdf(z):
        return np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in z])

    correct = 0.0
    for leaf, lo, hi in leaf_cells(tree):
        c = model.components[leaf]
        inside = norm_cdf((hi - c.mean) / c.stddev) - norm_cdf((lo - c.mean) / c.stddev)
        correct += model.weights[leaf] * float(np.prod(inside))
    return max(0.0, 1.0 - correct)


def test_exact_error_rate_gaussian_resolves_tiny_rates():
    def tail(z):
        return 0.5 * math.erfc(z / math.sqrt(2.0))

    m = MixtureModel.create(
        (Component.gaussian([0.0], [1.0]), Component.gaussian([23.3], [1.5])), [0.3, 0.7]
    )
    theta = 9.2
    tree = AxisTree(
        nodes=[AxisCut(0, theta), 0, 1],
        dim=1,
    )
    expected = 0.3 * tail(theta / 1.0) + 0.7 * tail((23.3 - theta) / 1.5)
    assert 1e-21 < expected < 1e-19
    assert exact_error_rate_gaussian(m, tree) == pytest.approx(expected, rel=1e-12, abs=0.0)
    # a cut far left of component 0 leaves its cell without mass: log1p(-1)
    far = AxisTree(
        nodes=[AxisCut(0, -50.0), 0, 1],
        dim=1,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert exact_error_rate_gaussian(m, far) == 0.3


def test_exact_error_rate_gaussian_matches_cancelling_form():
    rng = np.random.default_rng(5)
    models = [gaussian_battery(i) for i in range(50)]
    for _ in range(30):  # overlapping components, rates well above 1e-9
        k, d = int(rng.integers(2, 6)), int(rng.integers(1, 5))
        means, sd = rng.uniform(-3.0, 3.0, (k, d)), rng.uniform(0.5, 2.0, d)
        comps = tuple(Component.gaussian(means[j], sd) for j in range(k))
        models.append(MixtureModel.create(comps, np.full(k, 1.0 / k)))
    compared = 0
    for m in models:
        tree = build_mmdt(m, "gaussian")
        reference = _cancelling_error_rate(m, tree)
        if reference > 1e-9:
            compared += 1
            assert exact_error_rate_gaussian(m, tree) == pytest.approx(reference, rel=1e-7, abs=0.0)
    assert compared >= 30


def test_report_json_round_trip():
    inst = gen_b3(2)
    rep = evaluate_tree(inst.model, b3_canonical_tree(inst))
    d = rep.to_dict()
    assert d["format_version"] == 1
    assert d["price_l1"] == rep.price_l1


def test_every_pricer_shares_one_tree_fit_check():
    # tree.check_fits is the one check that a tree fits its model, for the
    # axis and kernel evaluators.  `eval-data` makes it before it routes the
    # rows once for the dataset price (test_io_cli's eval-data-leaf-count).
    b3, thm4 = gen_b3(3).model, gen_thm4(3, 3).model  # K = 2 and 3, both d = 3
    axis_tree = build_mmdt(thm4, "exact-discrete")
    ker = KernelSpec.uniform("gaussian", 1.0, 3)
    kernel_tree = build_kernel_mmdt(thm4, ker, kernel_stats(thm4, ker))
    gauss = MixtureModel.create(tuple(Component.gaussian(m, np.ones(3)) for m in b3.means()), [0.5, 0.5])
    calls = [
        lambda: evaluate_tree(b3, axis_tree),
        lambda: evaluate_tree(gauss, axis_tree, 1000, 0),
        lambda: exact_error_rate_gaussian(b3, axis_tree),
        lambda: kernel_price(b3, kernel_tree),
    ]
    for call in calls:
        with pytest.raises(IncompatibilityError, match="tree has 3 leaves, expected 2"):
            call()
    with pytest.raises(IncompatibilityError, match="tree has dimension 3, expected 2"):
        check_fits(axis_tree, 2, 3)
