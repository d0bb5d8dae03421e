import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from mmdt import (
    Component,
    KernelSpec,
    LabeledDataset,
    MixtureModel,
    ValidationError,
    build_kernel_mmdt,
    empirical_moments,
    kernel_price,
    kernel_stats,
    mmd,
    predict,
    thm5_bound,
    xi,
)
from mmdt.errors import IncompatibilityError
from mmdt.kernel import (
    KernelPriceReport,
    KernelTree,
    _full_gram,
    check_structure,
    cut_interval,
    interval_predict,
)
from mmdt.tree import assign_components, export_dot

from conftest import translate_battery


def point_pair(dist=2.0, gamma=0.5):
    a = Component.discrete([[0.0, 0.0]], [1.0])
    b = Component.discrete([[dist, 0.0]], [1.0])
    model = MixtureModel.create((a, b), [0.5, 0.5])
    return model, KernelSpec.uniform("gaussian", gamma, 2)


def test_profiles():
    ker = KernelSpec(profiles=("gaussian", "laplace"), gamma=[2.0, 3.0])
    assert ker.profile_value(0, 0.0) == 1.0 and ker.profile_value(1, 0.0) == 1.0
    ts = np.linspace(0.0, 4.0, 50)
    for axis in (0, 1):
        vals = ker.profile_value(axis, ts)
        assert np.all(np.diff(vals) < 0)
        assert np.all(vals > 0)
    assert ker.profile_value(0, 1.5) == pytest.approx(math.exp(-2.0 * 1.5**2))
    assert ker.profile_value(1, 1.5) == pytest.approx(math.exp(-3.0 * 1.5))
    for axis, theta in ((0, 0.3), (1, 0.7)):
        r = ker.profile_inverse(axis, theta)
        assert ker.profile_value(axis, r) == pytest.approx(theta, rel=1e-12)
    with pytest.raises(ValidationError):
        KernelSpec(profiles=("triangle",), gamma=[1.0])
    with pytest.raises(ValidationError):
        KernelSpec.uniform("gaussian", 0.0, 2)


def test_xi_examples():
    model, ker = point_pair(dist=2.0, gamma=0.5)
    assert xi(model, ker, 0, 0, 0) == 1.0  # point mass, g(0) = 1
    assert xi(model, ker, 0, 0, 1) == pytest.approx(math.exp(-0.5 * 4.0))
    assert xi(model, ker, 0, 0, 1) == xi(model, ker, 0, 1, 0)
    # brute-force double sum on a random discrete pair
    model2, ker2 = translate_battery(123)
    i, k, l = 0, 0, 1
    got = xi(model2, ker2, i, k, l)
    ck, cl = model2.components[k], model2.components[l]
    want = sum(
        mk * ml * float(ker2.profile_value(i, abs(pk[i] - pl[i])))
        for pk, mk in zip(ck.support, ck.mass)
        for pl, ml in zip(cl.support, cl.mass)
    )
    assert got == pytest.approx(want, rel=1e-12)


def test_xi_mc_agrees_with_exact():
    model, ker = translate_battery(77)
    exact = xi(model, ker, 0, 0, 1, mode="exact")
    approx = xi(model, ker, 0, 0, 1, mode="mc", n_pairs=200_000, seed=5)
    assert approx == pytest.approx(exact, abs=5e-3)


def test_kernel_stats_point_masses():
    model, ker = point_pair(dist=2.0, gamma=0.5)
    st = kernel_stats(model, ker)
    assert st.sigma2 == 1.0
    assert st.tau == pytest.approx(math.exp(-2.0))
    assert st.eps2 == 0.0
    assert st.xi_table.shape == (2, 2, 2)


def test_xi_self_similarity_floor():
    for i in range(20):
        model, ker = translate_battery(4000 + i)
        st = kernel_stats(model, ker)
        for k in range(model.k):
            assert np.all(st.xi_table[:, k, k] >= st.sigma2 - 1e-12)
        # symmetry
        assert np.allclose(st.xi_table, st.xi_table.transpose(0, 2, 1))


def test_kernel_stats_warns_on_unequal_norms():
    a = Component.discrete([[0.0], [0.5]], [0.5, 0.5])
    b = Component.discrete([[5.0]], [1.0])
    model = MixtureModel.create((a, b), [0.5, 0.5])
    ker = KernelSpec.uniform("gaussian", 1.0, 1)
    with pytest.warns(UserWarning, match="self-similarities"):
        kernel_stats(model, ker)


def test_mmd_examples():
    model, ker = point_pair(dist=3.0, gamma=0.25)
    assert mmd(model, ker, 0, 0) == 0.0
    assert mmd(model, ker, 0, 1) == pytest.approx(math.sqrt(2.0 - 2.0 * math.exp(-0.25 * 9.0)))
    model2, ker2 = translate_battery(55)
    got = mmd(model2, ker2, 0, 1)
    # brute-force from the three double sums
    def cross(k, l):
        ck, cl = model2.components[k], model2.components[l]
        total = 0.0
        for pk, mk in zip(ck.support, ck.mass):
            for pl, ml in zip(cl.support, cl.mass):
                total += mk * ml * float(ker2.similarity(pk, pl))
        return total

    want = math.sqrt(max(0.0, cross(0, 0) + cross(1, 1) - 2 * cross(0, 1)))
    assert got == pytest.approx(want, rel=1e-12)


def test_similarity_mmd_bound_on_translate_battery():
    for i in range(40):
        model, ker = translate_battery(5000 + i)
        st = kernel_stats(model, ker)
        g = min(
            mmd(model, ker, a, b) for a in range(model.k) for b in range(a + 1, model.k)
        )
        assert st.tau <= st.sigma2 - g**2 / (2.0 * model.dim) + 1e-9


def test_build_kernel_tree_two_point():
    model, ker = point_pair(dist=2.0, gamma=0.5)
    st = kernel_stats(model, ker)
    tree = build_kernel_mmdt(model, ker, st, seed=3)
    kappa_ab = math.exp(-2.0)
    assert tree.root.cut.theta == pytest.approx((1.0 + kappa_ab) / 2.0)
    assert tree.root.cut.anchor == 0
    # prototype is the anchor's only support point
    np.testing.assert_allclose(tree.root.cut.prototype, [0.0, 0.0])
    assert predict(tree, [0.0, 0.0]) == 0  # self-similarity 1 goes right
    assert predict(tree, [2.0, 0.0]) == 1
    assert predict(tree, [1e9, 0.0]) == 1  # similarity 0 goes left
    # equality goes right in both forms: a point at exactly the cut radius,
    # and a cut whose theta is exactly a point's axis similarity
    cut = tree.root.cut
    assert interval_predict(tree, [cut_interval(cut, ker), 0.0]) == 0
    on_theta = dataclasses.replace(cut, theta=float(ker.axis_similarity(0, 1.0, 0.0)))
    edited = dataclasses.replace(tree, root=dataclasses.replace(tree.root, cut=on_theta))
    assert predict(edited, [1.0, 0.0]) == 0
    assert interval_predict(edited, [cut_interval(on_theta, ker), 0.0]) == 0


def test_kernel_tree_rejects_a_second_kernel():
    model, ker = point_pair()
    tree = build_kernel_mmdt(model, ker, kernel_stats(model, ker), seed=0)
    same = KernelSpec.uniform("gaussian", 0.5, 2)
    assert dataclasses.replace(tree, kernel=same).kernel is same
    with pytest.raises(ValidationError, match="cut's kernel"):
        dataclasses.replace(tree, kernel=KernelSpec.uniform("laplace", 0.5, 2))


def test_build_kernel_cuts_on_separating_axis():
    # components distinguished only along the second axis: the cut lands
    # there, anchored on the lower pair index with a prototype drawn from it
    rng = np.random.default_rng(2)
    base = rng.uniform(0.0, 0.4, size=(3, 2))
    a = Component.discrete(base, [0.2, 0.3, 0.5])
    b = Component.discrete(base + np.array([0.0, 3.0]), [0.2, 0.3, 0.5])
    model = MixtureModel.create((a, b), [0.5, 0.5])
    ker = KernelSpec.uniform("gaussian", 1.0, 2)
    st = kernel_stats(model, ker)
    tree = build_kernel_mmdt(model, ker, st, seed=4)
    cut = tree.root.cut
    assert cut.axis == 1
    assert cut.anchor == 0
    assert any(np.array_equal(cut.prototype, row) for row in a.support)


def test_build_kernel_requires_matching_stats():
    model, ker = point_pair()
    other_model, _ = translate_battery(9)
    st = kernel_stats(other_model, KernelSpec.uniform("gaussian", 1.0, other_model.dim))
    with pytest.raises(IncompatibilityError):
        build_kernel_mmdt(model, ker, st, seed=0)


def collect_leaves(node):
    if node.is_leaf:
        return [node.leaf]
    return collect_leaves(node.left) + collect_leaves(node.right)


def test_kernel_tree_partition_matches_xi_sides():
    for i in range(30):
        model, ker = translate_battery(6000 + i)
        st = kernel_stats(model, ker)
        tree = build_kernel_mmdt(model, ker, st, seed=i)
        check_structure(tree, st)
        assert sorted(tree.leaves()) == list(range(model.k))
        # own-axis similarity is at least sigma2, so whenever theta < sigma2
        # the anchor component belongs to the right subtree
        cut = tree.root.cut
        if cut.theta < st.sigma2:
            assert cut.anchor in collect_leaves(tree.root.right)


def test_kernel_predict_support_enumeration():
    model, ker = translate_battery(81)
    st = kernel_stats(model, ker)
    tree = build_kernel_mmdt(model, ker, st, seed=2)
    for k, comp in enumerate(model.components):
        routed = assign_components(tree, comp.support)
        singles = [interval_predict(tree, p) for p in comp.support]
        assert list(routed) == singles
    with pytest.raises(IncompatibilityError):
        predict(tree, np.zeros(model.dim + 1))
    # the interval-form reference router checks the point's shape the same way
    for bad in (np.zeros(model.dim + 1), np.zeros(model.dim - 1)):
        with pytest.raises(IncompatibilityError, match="tree expects"):
            interval_predict(tree, bad)
        with pytest.raises(IncompatibilityError, match="tree expects"):
            predict(tree, bad)


def test_interval_form_matches_kernel_predict():
    rng = np.random.default_rng(0)
    for i in range(10):
        model, ker = translate_battery(7000 + i)
        if i % 2:  # exercise the laplace profile as well
            ker = KernelSpec.uniform("laplace", float(ker.gamma[0]), model.dim)
        st = kernel_stats(model, ker)
        tree = build_kernel_mmdt(model, ker, st, seed=i)
        pts = rng.normal(scale=4.0, size=(200, model.dim))
        for p in pts:
            assert interval_predict(tree, p) == predict(tree, p)
        # interval radius inverts the profile exactly
        cut = tree.root.cut
        r = cut_interval(cut, ker)
        assert ker.profile_value(cut.axis, r) == pytest.approx(cut.theta, rel=1e-12)


@pytest.mark.parametrize("n_pairs", [0, -3])
def test_mc_statistics_reject_pairs_below_one(n_pairs):
    model, ker = translate_battery(3)
    calls = [
        lambda: kernel_stats(model, ker, mode="mc", n_pairs=n_pairs),
        lambda: xi(model, ker, 0, 0, 1, mode="mc", n_pairs=n_pairs),
        lambda: mmd(model, ker, 0, 1, mode="mc", n_pairs=n_pairs),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match="n_pairs must be >= 1"):
            call()


def test_mc_paths_with_gaussian_components():
    comps = (
        Component.gaussian([0.0, 0.0], [0.3, 0.3]),
        Component.gaussian([4.0, 0.2], [0.3, 0.3]),
    )
    model = MixtureModel.create(comps, [0.5, 0.5])
    ker = KernelSpec.uniform("gaussian", 0.4, 2)
    st = kernel_stats(model, ker, mode="mc", n_pairs=50_000, seed=1)
    assert 0.0 < st.sigma2 < 1.0 and st.tau < st.sigma2
    # closed form for gaussian profile with gaussian marginals:
    # E exp(-g (x - y)^2) = exp(-g D^2 / (1 + 2 g s^2)) / sqrt(1 + 2 g s^2)
    g, s2, dist = 0.4, 0.3**2 + 0.3**2, 4.0
    want = math.exp(-g * dist**2 / (1 + 2 * g * s2)) / math.sqrt(1 + 2 * g * s2)
    assert xi(model, ker, 0, 0, 1, mode="mc", n_pairs=200_000, seed=2) == pytest.approx(
        want, abs=2e-3
    )
    assert mmd(model, ker, 0, 1, mode="mc", n_pairs=50_000, seed=3) > 0.5
    tree = build_kernel_mmdt(model, ker, st, seed=0)
    rep = kernel_price(model, ker, tree, n=4000, seed=5, mode="mc", leaf_subsample=512)
    assert rep.price == pytest.approx(1.0, abs=0.1)
    assert rep.error_rate < 0.05


def test_kernel_price_exact_matches_brute_force():
    model, ker = translate_battery(404)
    st = kernel_stats(model, ker)
    tree = build_kernel_mmdt(model, ker, st, seed=1)
    rep = kernel_price(model, ker, tree)
    # brute-force Hilbert-norm expansion over the joint support
    pts, w, comp = [], [], []
    for k, c in enumerate(model.components):
        for row, mass in zip(c.support, c.mass):
            pts.append(row)
            w.append(model.weights[k] * mass)
            comp.append(k)
    pts = np.array(pts)
    w = np.array(w)
    comp = np.array(comp)
    assigned = assign_components(tree, pts)

    def emb_dist2(x, rows, masses):
        norm = sum(
            mi * mj * float(ker.similarity(ri, rj))
            for ri, mi in zip(rows, masses)
            for rj, mj in zip(rows, masses)
        )
        cross = sum(mi * float(ker.similarity(x, ri)) for ri, mi in zip(rows, masses))
        return 1.0 + norm - 2.0 * cross

    base = sum(
        wi * emb_dist2(x, model.components[c].support, model.components[c].mass)
        for x, wi, c in zip(pts, w, comp)
    )
    cost = 0.0
    for leaf in range(model.k):
        mask = assigned == leaf
        rows = pts[mask]
        masses = w[mask] / w[mask].sum()
        cost += sum(
            wi * emb_dist2(x, rows, masses) for x, wi in zip(pts[mask], w[mask])
        )
    assert rep.baseline_cost == pytest.approx(base, rel=1e-10)
    assert rep.price == pytest.approx(cost / base, rel=1e-10)
    assert rep.price <= rep.price_hat + 1e-12


def test_kernel_price_zero_noise():
    model, ker = point_pair()
    st = kernel_stats(model, ker)
    tree = build_kernel_mmdt(model, ker, st, seed=0)
    rep = kernel_price(model, ker, tree)
    assert rep.price == 1.0 and rep.error_rate == 0.0


def test_kernel_price_mc_mode():
    model, ker = translate_battery(300)
    st = kernel_stats(model, ker)
    tree = build_kernel_mmdt(model, ker, st, seed=0)
    exact = kernel_price(model, ker, tree)
    approx = kernel_price(model, ker, tree, n=5000, seed=4, mode="mc", leaf_subsample=512)
    assert approx.price == pytest.approx(exact.price, abs=0.05)
    assert approx.error_rate == pytest.approx(exact.error_rate, abs=0.02)


def dense_kernel_price(model, ker, tree, n=0, seed=0, mode="exact", leaf_subsample=2048):
    # Reference: the five separate Gram products per component and leaf that
    # the blocked single pass replaced (self-similarity, own rows, assigned
    # rows, leaf norm, leaf cross term), with the same random streams.
    if mode == "exact":
        pts = np.vstack([c.support for c in model.components])
        w = np.concatenate([model.weights[k] * c.mass for k, c in enumerate(model.components)])
        comp = np.concatenate([np.full(c.support.shape[0], k) for k, c in enumerate(model.components)])
        comp_support = [c.support for c in model.components]
        comp_mass = [c.mass for c in model.components]
    else:
        rng = np.random.default_rng(seed)
        comp = rng.choice(model.k, size=n, p=model.weights)
        pts = np.empty((n, model.dim))
        for k, c in enumerate(model.components):
            if (comp == k).any():
                pts[comp == k] = c.sample(rng, int((comp == k).sum()))
        w = np.full(n, 1.0 / n)
        comp_support, comp_mass = [], []
        for k in range(model.k):
            rows = pts[comp == k]
            if rows.shape[0] == 0:
                rows = model.components[k].sample(np.random.default_rng(seed ^ (k + 1)), 2)
            if rows.shape[0] > leaf_subsample:
                rows = rows[np.random.default_rng(seed ^ (k + 101)).choice(
                    rows.shape[0], leaf_subsample, replace=False)]
            comp_support.append(rows)
            comp_mass.append(np.full(rows.shape[0], 1.0 / rows.shape[0]))
    assigned = assign_components(tree, pts)

    def cross(points, support, mass):
        return _full_gram(ker, points, support) @ mass

    cost_own, cost_hat, cost_tilde = (np.empty(pts.shape[0]) for _ in range(3))
    fallbacks = []
    for k in range(model.k):
        sup, mass = comp_support[k], comp_mass[k]
        self_sim = mass @ _full_gram(ker, sup, sup) @ mass
        own, mine = comp == k, assigned == k
        cost_own[own] = 1.0 + self_sim - 2.0 * cross(pts[own], sup, mass)
        cost_hat[mine] = 1.0 + self_sim - 2.0 * cross(pts[mine], sup, mass)
        if not mine.any():
            fallbacks.append(k)
            continue
        rows, rw = pts[mine], w[mine]
        if rows.shape[0] > leaf_subsample:
            sel = np.random.default_rng(seed ^ (k + 7919)).choice(
                rows.shape[0], leaf_subsample, replace=False, p=rw / rw.sum()
            )
            q_pts, q = rows[sel], np.full(leaf_subsample, 1.0 / leaf_subsample)
        else:
            q_pts, q = rows, rw / rw.sum()
        leaf_norm = q @ _full_gram(ker, q_pts, q_pts) @ q
        cost_tilde[mine] = 1.0 + leaf_norm - 2.0 * cross(rows, q_pts, q)
    baseline, tree_cost = float(w @ cost_own), float(w @ cost_tilde)
    return KernelPriceReport(
        price=tree_cost / baseline,
        price_hat=float(w @ cost_hat) / baseline,
        error_rate=float(w @ (assigned != comp)),
        baseline_cost=baseline,
        tree_cost=tree_cost,
        mc_samples=0 if mode == "exact" else n,
        mc_seed=seed,
        fallback_leaves=tuple(fallbacks),
    )


def assert_matches_dense(model, ker, tree, **kwargs):
    got = kernel_price(model, ker, tree, **kwargs)
    want = dense_kernel_price(model, ker, tree, **kwargs)
    assert got.error_rate == want.error_rate
    assert got.fallback_leaves == want.fallback_leaves
    for field in ("price", "price_hat", "baseline_cost", "tree_cost"):
        assert getattr(got, field) == pytest.approx(getattr(want, field), rel=1e-12, abs=0.0)
    return got


@pytest.mark.parametrize("mode, leaf_subsample", [("mc", 0), ("mc", -3), ("exact", 0)])
def test_kernel_price_rejects_leaf_subsample_below_one(mode, leaf_subsample):
    model, ker = translate_battery(3)
    tree = build_kernel_mmdt(model, ker, kernel_stats(model, ker), seed=0)
    with pytest.raises(ValidationError, match="leaf_subsample must be >= 1"):
        kernel_price(model, ker, tree, n=500, seed=1, mode=mode, leaf_subsample=leaf_subsample)


def test_kernel_price_matches_dense_on_translate_battery():
    for i in range(30):
        model, ker = translate_battery(8000 + i)
        tree = build_kernel_mmdt(model, ker, kernel_stats(model, ker), seed=i)
        assert_matches_dense(model, ker, tree)


def mislabeled_moments(seed, n=600, k=3, d=2, flip=0.05):
    # Clusters on one axis with a share of rows labeled as another cluster:
    # the empirical law has support rows that the tree routes to another leaf.
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, k, n)
    points = rng.normal(scale=0.2, size=(n, d))
    points[:, 0] += 2.0 * labels
    flipped = rng.uniform(size=n) < flip
    labels[flipped] = (labels[flipped] + 1) % k
    return empirical_moments(LabeledDataset(points=points, labels=labels), k)


@pytest.mark.filterwarnings("ignore:component self-similarities differ")
def test_kernel_price_matches_dense_with_misrouted_rows():
    for seed in range(3):
        model = mislabeled_moments(seed)
        ker = KernelSpec.uniform("gaussian", 1.0, model.dim)
        tree = build_kernel_mmdt(model, ker, kernel_stats(model, ker), seed=seed)
        # exact, and exact with leaves subsampled through their weights
        assert assert_matches_dense(model, ker, tree).error_rate > 0.0
        assert_matches_dense(model, ker, tree, leaf_subsample=64)


def overlapping_gaussians():
    comps = tuple(Component.gaussian([2.0 * j, 0.0, 0.0], [0.8, 0.3, 0.3]) for j in range(3))
    model = MixtureModel.create(comps, [0.3, 0.3, 0.4])
    ker = KernelSpec(profiles=("gaussian", "laplace", "gaussian"), gamma=[0.5, 1.0, 2.0])
    tree = build_kernel_mmdt(model, ker, kernel_stats(model, ker, mode="mc", n_pairs=2000), seed=1)
    return model, ker, tree


def test_kernel_price_matches_dense_in_mc_mode():
    # Components and leaves differ, and with 64-point subsamples the
    # component's and the leaf's reference points are different draws.
    model, ker, tree = overlapping_gaussians()
    for seed in (3, 4):
        rep = assert_matches_dense(model, ker, tree, n=3000, seed=seed, mode="mc", leaf_subsample=64)
        assert rep.error_rate > 0.0
    assert_matches_dense(model, ker, tree, n=500, seed=5, mode="mc")


def without_draws(model):
    weights = np.full(model.k, 1.0)
    weights[0] = 1e-9
    return MixtureModel.create(model.components, weights / weights.sum())


def test_kernel_price_mc_component_without_draws():
    # A near-zero-weight component gets no draws, so its reference points are
    # two fresh draws.  Far from the others its leaf stays empty; among
    # overlapping gaussians other components' rows are routed to its leaf.
    model, ker = translate_battery(8100)
    tree = build_kernel_mmdt(model, ker, kernel_stats(model, ker), seed=0)
    rep = assert_matches_dense(without_draws(model), ker, tree, n=400, seed=2, mode="mc")
    assert 0 in rep.fallback_leaves
    model, ker, tree = overlapping_gaussians()
    rep = assert_matches_dense(without_draws(model), ker, tree, n=3000, seed=6, mode="mc")
    assert rep.fallback_leaves == ()


def test_kernel_price_rejects_unknown_mode():
    model, ker = point_pair()
    tree = build_kernel_mmdt(model, ker, kernel_stats(model, ker), seed=0)
    with pytest.raises(ValidationError, match="'Exact'"):
        kernel_price(model, ker, tree, n=1000, mode="Exact")


def test_kernel_price_mc_memory_is_bounded():
    comps = tuple(Component.gaussian([2.5 * j, 0.0, 0.0, 0.0], [0.1] * 4) for j in range(5))
    model = MixtureModel.create(comps, np.full(5, 0.2))
    ker = KernelSpec.uniform("gaussian", 1.0, 4)
    tree = build_kernel_mmdt(model, ker, kernel_stats(model, ker, mode="mc", n_pairs=2000), seed=0)
    tracemalloc.start()
    try:
        rep = kernel_price(model, ker, tree, n=50_000, seed=1, mode="mc")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.error_rate == 0.0 and rep.fallback_leaves == ()
    assert peak < 64 * 2**20


def test_thm5_bound_examples():
    assert thm5_bound(1.0, 2, 0.5, 1e-6, 0.1) == pytest.approx(1.0 + 3.0)
    assert thm5_bound(1.0, 2, 0.5, 0.01, 0.1) == pytest.approx(4.0)
    # bound grows as sigma2 -> 1
    assert thm5_bound(1.0, 2, 0.99, 1e-6, 0.1) > thm5_bound(1.0, 2, 0.9, 1e-6, 0.1)
    with pytest.raises(ValidationError, match="self-similarity"):
        thm5_bound(1.0, 2, 0.5, 0.01, 0.6)
    with pytest.raises(ValidationError):
        thm5_bound(1.0, 2, 1.0, 0.01, 0.1)


def test_kernel_tree_json_round_trip_and_dot():
    model, ker = translate_battery(11)
    st = kernel_stats(model, ker)
    tree = build_kernel_mmdt(model, ker, st, seed=6)
    clone = KernelTree.from_dict(tree.to_dict())
    assert clone.to_dict() == tree.to_dict()
    rng = np.random.default_rng(1)
    pts = rng.normal(scale=3.0, size=(100, model.dim))
    assert list(assign_components(clone, pts)) == list(assign_components(tree, pts))
    dot = export_dot(tree)
    assert dot.startswith("digraph") and "|x" in dot
