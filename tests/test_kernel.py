import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

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
    predict,
    thm5_bound,
)
from mmdt import kernel as kernel_module
from mmdt.errors import IncompatibilityError
from mmdt.kernel import (
    PROFILES,
    KernelPriceReport,
    KernelTree,
    check_structure,
    interval_predict,
)
from mmdt.tree import assign_components, export_dot

from conftest import translate_battery
from oracles import caterpillar_kernel_stats, mmd, node_depths, pairwise_kernel_stats


def profile(ker, i, t):
    # The profile g_i written on np.exp, independent of the library's atom law.
    t = np.asarray(t, dtype=float)
    if ker.profiles[i] == "gaussian":
        return np.exp(-ker.gamma[i] * t**2)
    return np.exp(-ker.gamma[i] * t)


def axis_gram(ker, i, u, v):
    return profile(ker, i, np.abs(u[:, None] - v[None, :]))


def full_gram(ker, a, b):
    out = np.ones((a.shape[0], b.shape[0]))
    for i in range(ker.dim):
        out *= axis_gram(ker, i, a[:, i], b[:, i])
    return out


def exponent_gram(ker, a, b):
    # The full kernel between point sets as one exponential of the summed
    # per-axis exponents -gamma_i t_i, added in axis order.
    total = 0.0
    for i in range(ker.dim):
        t = np.abs(a[:, i, None] - b[None, :, i])
        total = total + (t**2 if ker.profiles[i] == "gaussian" else t) * -ker.gamma[i]
    return np.exp(total)


def similarity(ker, x, y):
    """Full product kernel kappa(x, y) of two points."""
    return math.prod(float(profile(ker, i, abs(x[i] - y[i]))) for i in range(ker.dim))


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
        assert np.array_equal(vals, profile(ker, axis, ts))
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
    table = kernel_stats(model, ker).xi_table
    assert table[0, 0, 0] == 1.0  # point mass, g(0) = 1
    assert table[0, 0, 1] == pytest.approx(math.exp(-0.5 * 4.0))
    assert table[0, 0, 1] == table[0, 1, 0]
    # brute-force double sum on a random discrete pair
    model2, ker2 = translate_battery(123)
    i, k, l = 0, 0, 1
    got = kernel_stats(model2, ker2).xi_table[i, k, l]
    ck, cl = model2.components[k], model2.components[l]
    want = sum(
        mk * ml * float(profile(ker2, i, abs(pk[i] - pl[i])))
        for pk, mk in zip(ck.support, ck.mass)
        for pl, ml in zip(cl.support, cl.mass)
    )
    assert got == pytest.approx(want, rel=1e-12)


def test_xi_mc_agrees_with_exact():
    model, ker = translate_battery(77)
    x, y = reference_pairs(model, 0, 1, 200_000, 5)
    approx = float(np.mean(ker.profile_value(0, x[:, 0] - y[:, 0])))
    assert approx == pytest.approx(kernel_stats(model, ker).xi_table[0, 0, 1], abs=5e-3)


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
    assert mmd(model, ker, 1, 1) == 0.0
    assert mmd(model, ker, 0, 1) == pytest.approx(math.sqrt(2.0 - 2.0 * math.exp(-0.25 * 9.0)))
    model2, ker2 = translate_battery(55)
    got = mmd(model2, ker2, 0, 1)
    # brute-force from the three double sums
    def cross(k, l):
        ck, cl = model2.components[k], model2.components[l]
        total = 0.0
        for pk, mk in zip(ck.support, ck.mass):
            for pl, ml in zip(cl.support, cl.mass):
                total += mk * ml * similarity(ker2, pk, pl)
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
    assert tree.nodes[0].theta == pytest.approx((1.0 + kappa_ab) / 2.0)
    assert tree.nodes[0].anchor == 0
    # prototype is the anchor's only support point
    np.testing.assert_allclose(tree.nodes[0].prototype, [0.0, 0.0])
    assert predict(tree, [0.0, 0.0]) == 0  # self-similarity 1 goes right
    assert predict(tree, [2.0, 0.0]) == 1
    assert predict(tree, [1e9, 0.0]) == 1  # similarity 0 goes left
    # equality goes right in both forms: a point at exactly the cut radius,
    # and a cut whose theta is exactly a point's axis similarity
    cut = tree.nodes[0]
    assert interval_predict(tree, [tree.radius(cut), 0.0]) == 0
    on_theta = dataclasses.replace(cut, theta=float(ker.profile_value(0, 1.0)))
    edited = dataclasses.replace(tree, nodes=(on_theta, *tree.nodes[1:]))
    assert predict(edited, [1.0, 0.0]) == 0
    assert interval_predict(edited, [edited.radius(on_theta), 0.0]) == 0


def test_kernel_tree_routes_with_its_one_kernel():
    # The cuts hold no kernel: a tree given a laplace kernel routes, in both
    # forms, by that kernel alone.
    model, ker = translate_battery(7000)
    tree = build_kernel_mmdt(model, ker, kernel_stats(model, ker), seed=0)
    laplace = KernelSpec.uniform("laplace", float(ker.gamma[0]), model.dim)
    edited = dataclasses.replace(tree, kernel=laplace)
    cut = edited.nodes[0]
    assert edited.radius(cut) == laplace.profile_inverse(cut.axis, cut.theta) != tree.radius(cut)
    pts = np.random.default_rng(1).normal(scale=4.0, size=(200, model.dim))
    routed = [predict(edited, p) for p in pts]
    assert [interval_predict(edited, p) for p in pts] == routed
    assert routed != [predict(tree, p) for p in pts]


def test_kernel_tree_checks_its_kernel_dimension():
    # built in code or loaded from JSON, a tree's one kernel has one axis per tree axis
    three_axes = KernelSpec.uniform("gaussian", 1.0, 3)
    with pytest.raises(ValidationError, match="does not match kernel dimension 3"):
        KernelTree(nodes=[0], dim=2, kernel=three_axes)
    model, ker = translate_battery(7000)
    tree = build_kernel_mmdt(model, ker, kernel_stats(model, ker), seed=0)
    with pytest.raises(ValidationError, match="does not match kernel dimension"):
        dataclasses.replace(tree, kernel=KernelSpec.uniform("gaussian", 1.0, model.dim + 1))


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
    cut = tree.nodes[0]
    assert cut.axis == 1
    assert cut.anchor == 0
    assert any(np.array_equal(cut.prototype, row) for row in a.support)


def test_build_kernel_requires_matching_stats():
    model, ker = point_pair()
    other_model, _ = translate_battery(9)
    st = kernel_stats(other_model, KernelSpec.uniform("gaussian", 1.0, other_model.dim))
    with pytest.raises(IncompatibilityError):
        build_kernel_mmdt(model, ker, st, seed=0)


def loop_choice(xi_table, comps):
    """The (axis, anchor) of the smallest (xi, axis, k, l) with k < l, by
    one Python comparison per candidate."""
    best = None
    for i in range(xi_table.shape[0]):
        for a_idx, k in enumerate(comps):
            for l in comps[a_idx + 1 :]:
                cand = (float(xi_table[i, k, l]), i, k, l)
                if best is None or cand < best:
                    best = cand
    return best[1], best[2]


def loop_tau(xi_table):
    tau = 0.0
    for k in range(xi_table.shape[1]):
        for l in range(xi_table.shape[1]):
            if k != l:
                tau = max(tau, float(xi_table[:, k, l].min()))
    return tau


def test_build_kernel_choice_matches_pair_loop():
    # Array argmin against the candidate loop at every node, with exact ties
    # forced by rounding the xi table of a Gaussian mixture.
    cases = []
    for i in range(20):
        model, ker = translate_battery(7000 + i)
        cases.append((model, ker, kernel_stats(model, ker)))
    rng = np.random.default_rng(8)
    means, stds = rng.uniform(-3.0, 3.0, (12, 4)), rng.uniform(0.3, 1.0, (12, 4))
    model = MixtureModel.create(tuple(Component.gaussian(m, s) for m, s in zip(means, stds)), np.full(12, 1 / 12))
    ker = KernelSpec.uniform("gaussian", 0.5, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        st = kernel_stats(model, ker)
    cases.append((model, ker, st))
    for _, _, computed in cases:
        assert computed.tau == loop_tau(computed.xi_table)
    cases.append((model, ker, dataclasses.replace(st, xi_table=np.round(st.xi_table, 2))))
    for model, ker, st in cases:
        tree = build_kernel_mmdt(model, ker, st, seed=1)
        stack = [(0, list(range(model.k)))]
        while stack:
            i, comps = stack.pop()
            cut = tree.nodes[i]
            if isinstance(cut, int):
                continue
            assert (cut.axis, cut.anchor) == loop_choice(st.xi_table, comps)
            left = [m for m in comps if st.xi_table[cut.axis, cut.anchor, m] < cut.theta]
            stack += [(i + 1, left), (tree.right[i], [m for m in comps if m not in left])]


def test_kernel_tree_partition_matches_xi_sides():
    for i in range(30):
        model, ker = translate_battery(6000 + i)
        st = kernel_stats(model, ker)
        tree = build_kernel_mmdt(model, ker, st, seed=i)
        check_structure(tree, st)
        assert sorted(tree.leaves()) == list(range(model.k))
        # own-axis similarity is at least sigma2, so whenever theta < sigma2
        # the anchor component belongs to the right subtree
        cut = tree.nodes[0]
        if cut.theta < st.sigma2:
            assert cut.anchor in tree.nodes[tree.right[0]:]


def anchor_outside_its_node(tree, xi):
    # an internal child of the root, anchored at a component of the other side
    nodes, r = list(tree.nodes), tree.right[0]
    inner, other = (1, nodes[r:]) if not isinstance(nodes[1], int) else (r, nodes[1:r])
    nodes[inner] = dataclasses.replace(nodes[inner], anchor=next(n for n in other if isinstance(n, int)))
    return nodes


def threshold_below_every_xi(tree, xi):
    root = tree.nodes[0]
    theta = float(xi[root.axis, root.anchor].min()) / 2.0
    assert theta > 0.0
    return [dataclasses.replace(root, theta=theta), *tree.nodes[1:]]


def leaves_0_and_1_swapped(tree, xi):
    return [{0: 1, 1: 0}.get(n, n) if isinstance(n, int) else n for n in tree.nodes]


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(anchor_outside_its_node, "cut anchor is not among the node's components", id="anchor"),
        pytest.param(threshold_below_every_xi, "threshold does not split", id="threshold"),
        pytest.param(leaves_0_and_1_swapped, "does not match remaining set", id="leaf"),
    ],
)
def test_kernel_check_structure_rejects_bad_trees(edit, message):
    model, ker = translate_battery(6000)
    st = kernel_stats(model, ker)
    tree = build_kernel_mmdt(model, ker, st, seed=0)
    assert model.k == 4
    check_structure(tree, st)
    bad = dataclasses.replace(tree, nodes=edit(tree, st.xi_table))
    with pytest.raises(ValidationError, match=message):
        check_structure(bad, st)


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
        cut = tree.nodes[0]
        r = tree.radius(cut)
        assert ker.profile_value(cut.axis, r) == pytest.approx(cut.theta, rel=1e-12)


@pytest.mark.parametrize("n_pairs", [0, -3])
def test_mc_statistics_reject_pairs_below_one(n_pairs):
    # Every statistic is exact: none takes a pair count or a seed, at any value.
    model, ker = translate_battery(3)
    calls = [
        lambda **kw: kernel_stats(model, ker, **kw),
        lambda **kw: mmd(model, ker, 0, 1, **kw),
        lambda **kw: mmd(model, ker, 0, 0, **kw),
    ]
    for call in calls:
        for name in ("n_pairs", "seed"):
            with pytest.raises(TypeError, match=name):
                call(**{name: n_pairs})


@pytest.mark.parametrize("mode", ["bogus", "Exact"])
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda model, ker, mode: kernel_stats(model, ker, mode=mode), id="kernel_stats"),
        pytest.param(lambda model, ker, mode: mmd(model, ker, 0, 1, mode=mode), id="mmd"),
        pytest.param(lambda model, ker, mode: mmd(model, ker, 0, 0, mode=mode), id="mmd-self"),
    ],
)
def test_statistics_reject_unknown_mode(call, mode):
    # Exact is the only mode, so no statistic takes one.
    model, ker = translate_battery(3)
    with pytest.raises(TypeError, match="mode"):
        call(model, ker, mode)


@pytest.mark.parametrize("kind", ["discrete", "gaussian"])
def test_statistics_reject_component_index_out_of_range(kind):
    model, ker = translate_battery(3) if kind == "discrete" else mixed_profile_gaussians(9200)
    for k, l in ((-1, 0), (0, -1), (model.k, 0), (0, model.k), (-1, -1)):
        with pytest.raises(ValidationError, match="component index out of range"):
            mmd(model, ker, k, l)


def reference_pairs(model, k, l, n_pairs, seed):
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed & (2**64 - 1), spawn_key=(k, l)))
    return model.components[k].sample(rng, n_pairs), model.components[l].sample(rng, n_pairs)


def block_mean(ma, gram, mb):
    # ma @ gram @ mb in the order the library reduces it: the rows of a whole
    # Gram in blocks by the module's block rule, each block's row sums
    # against mb, then one dot with ma.
    step = max(1, kernel_module._GRAM_BLOCK // mb.size)
    return float(ma @ np.concatenate([gram[s : s + step] @ mb for s in range(0, gram.shape[0], step)]))


def reference_xi(model, ker, i, k, l):
    # Reference: the separate exact branches of xi, mmd and kernel_stats
    # that the one pair law replaced.
    ck, cl = model.components[k], model.components[l]
    return block_mean(ck.mass, axis_gram(ker, i, ck.support[:, i], cl.support[:, i]), cl.mass)


def reference_mmd(model, ker, k, l):
    def cross(a, b):
        ca, cb = model.components[a], model.components[b]
        return block_mean(ca.mass, exponent_gram(ker, ca.support, cb.support), cb.mass)

    if k == l:
        return 0.0
    return math.sqrt(max(0.0, cross(k, k) + cross(l, l) - 2.0 * cross(k, l)))


def reference_kernel_stats(model, ker):
    d, K = model.dim, model.k
    xi_table, sigma2_per, eps2 = np.empty((d, K, K)), np.empty(K), 0.0
    for k in range(K):
        for l in range(k, K):
            full = 1.0
            ck, cl = model.components[k], model.components[l]
            for i in range(d):
                gram = axis_gram(ker, i, ck.support[:, i], cl.support[:, i])
                mean = block_mean(ck.mass, gram, cl.mass)
                mean_sq = block_mean(ck.mass, gram**2, cl.mass)
                xi_table[i, k, l] = xi_table[i, l, k] = mean
                eps2 = max(eps2, mean_sq - mean**2)
                if k == l:
                    full = full * gram
            if k == l:
                sigma2_per[k] = block_mean(ck.mass, full, cl.mass)
    tau = max(float(xi_table[:, k, l].min()) for k in range(K) for l in range(K) if k != l)
    return xi_table, sigma2_per, min(1.0, eps2), tau


def mixed_profile_gaussians(seed):
    rng = np.random.default_rng(seed)
    k, d = int(rng.integers(2, 5)), int(rng.integers(1, 5))
    comps = tuple(
        Component.gaussian(rng.uniform(-3.0, 3.0, d), rng.uniform(0.2, 1.0, d)) for _ in range(k)
    )
    ker = KernelSpec(profiles=tuple(rng.choice(["gaussian", "laplace"], d)), gamma=rng.uniform(0.2, 2.0, d))
    return MixtureModel.create(comps, np.full(k, 1.0 / k)), ker


def test_statistics_match_the_per_function_branches():
    # On all-discrete models every statistic is bit-identical to the sums it
    # replaced, eps2 included: on point pairs both square the profile's
    # values.  mmd takes one exponential per entry.  The table holds each
    # pair as reduced in (min, max) order.
    for i in range(12):
        model, ker = translate_battery(9000 + i)
        st = kernel_stats(model, ker)
        xi_table, sigma2_per, eps2, tau = reference_kernel_stats(model, ker)
        assert np.array_equal(st.xi_table, xi_table)
        assert np.array_equal(st.sigma2_per_component, sigma2_per)
        assert st.sigma2 == float(sigma2_per.min()) and st.tau == tau
        assert st.eps2 == eps2
        for k in range(model.k):
            for l in range(model.k):
                assert mmd(model, ker, k, l) == reference_mmd(model, ker, k, l)
                for i in range(model.dim):
                    assert st.xi_table[i, k, l] == reference_xi(model, ker, i, min(k, l), max(k, l))


def reference_atom_gram(ker, i, a, b, var, power=1):
    # E kappa_i^power between atoms at the rows of a and b whose variances
    # add to var: the profile at power * gamma on np.exp for point pairs,
    # else the gaussian closed form or the library's scalar laplace mean.
    gamma = power * ker.gamma[i]
    diff = a[:, i, None] - b[None, :, i]
    if var == 0.0:
        return profile(KernelSpec((ker.profiles[i],), [gamma]), 0, np.abs(diff))
    if ker.profiles[i] == "gaussian":
        c = 1.0 + 2.0 * gamma * var
        return np.exp(-gamma / c * diff**2) / np.sqrt(c)
    return np.vectorize(kernel_module._laplace_mean)(diff, var, gamma)


def reference_atom_stats(model, ker, square_points=True):
    # xi table, sigma2_k and eps2 with E kappa_i^2 taken as kernel_stats
    # takes it, so that all three match bit for bit: on point pairs the
    # square of the power-1 Gram, else the profile's closed form at
    # 2 gamma_i.  With square_points=False every pair takes the closed form.
    atoms = [
        (c.mean[None, :], c.stddev**2, np.ones(1)) if c.support is None else (c.support, np.zeros(model.dim), c.mass)
        for c in model.components
    ]
    d, K = model.dim, model.k
    xi_table, sigma2_per, eps2 = np.empty((d, K, K)), np.empty(K), 0.0
    for k in range(K):
        for l in range(k, K):
            (a, va, ma), (b, vb, mb) = atoms[k], atoms[l]
            full = 1.0
            for i in range(d):
                var = va[i] + vb[i]
                gram = reference_atom_gram(ker, i, a, b, var)
                mean = xi_table[i, k, l] = xi_table[i, l, k] = block_mean(ma, gram, mb)
                if square_points and var == 0.0:
                    gram_sq = gram**2
                else:
                    gram_sq = reference_atom_gram(ker, i, a, b, var, power=2)
                mean_sq = block_mean(ma, gram_sq, mb)
                eps2 = max(eps2, mean_sq - mean**2)
                full = full * gram
            if k == l:
                sigma2_per[k] = block_mean(ma, full, mb)
    return xi_table, sigma2_per, min(1.0, eps2)


@pytest.mark.filterwarnings("ignore:component self-similarities differ")
def test_statistics_match_the_atom_reference_bit_for_bit():
    # eps2 included; both profiles; the mixed model's gaussian components
    # take the closed forms, and with the laplace profile the scalar laplace
    # mean, written into the Gram workspaces for both powers.
    cases = [translate_battery(9000 + i) for i in range(12)]
    cases += [(model, KernelSpec.uniform("laplace", ker.gamma, model.dim)) for model, ker in cases]
    model, ker = mixed_model()
    cases += [(model, ker)] + [(model, KernelSpec.uniform(name, 1.1, model.dim)) for name in PROFILES]
    # 700 atoms a side span several row blocks
    model = translated_supports(700)
    cases += [(model, KernelSpec.uniform(name, 1.0, model.dim)) for name in PROFILES]
    # Gaussian pairs, one-entry blocks, with the profile drawn per axis; on
    # the first axis of the tiny-stddev model, variances that underflow to 0
    # sit beside positive ones and take the point-pair formula.
    cases += [mixed_profile_gaussians(seed) for seed in range(9200, 9216)]
    tiny = MixtureModel.create(
        (
            Component.gaussian([0.0, 0.0], [1e-200, 0.5]),
            Component.gaussian([1.0, 0.3], [1e-200, 0.7]),
            Component.gaussian([2.0, -1.0], [0.4, 0.2]),
        ),
        np.full(3, 1.0 / 3.0),
    )
    cases += [(tiny, KernelSpec.uniform(name, 0.7, 2)) for name in PROFILES]
    for model, ker in cases:
        st = kernel_stats(model, ker)
        xi_table, sigma2_per, eps2 = reference_atom_stats(model, ker)
        assert np.array_equal(st.xi_table, xi_table)
        assert np.array_equal(st.sigma2_per_component, sigma2_per)
        assert st.eps2 == eps2


@pytest.mark.filterwarnings("ignore:component self-similarities differ")
@pytest.mark.parametrize("name", PROFILES)
def test_difference_blocks_match_the_broadcast_formula_bit_for_bit(name):
    # Blocks whose rows hold 1,000 and 5,000 atoms, shorter and longer than
    # the buffer numpy is given while a difference block is formed, against
    # the plain broadcast difference of reference_atom_gram.  The Gaussian
    # atom's pairs (var > 0, with the laplace profile its scalar mean) are
    # blocks of 200 one-entry rows and of one row of 1,000 or 5,000.
    rng = np.random.default_rng(7)
    sizes = (200, 1000, 5000)
    discrete = [Component.discrete(rng.normal(size=(s, 2)) + [3.0 * j, 0.0], np.full(s, 1.0 / s)) for j, s in enumerate(sizes)]
    model = MixtureModel.create((discrete[0], Component.gaussian([1.5, 0.2], [0.4, 0.6]), *discrete[1:]), np.full(4, 0.25))
    ker = KernelSpec(profiles=(name, name), gamma=[0.9, 1.4])
    bufsize = np.getbufsize()
    st = kernel_stats(model, ker)
    assert np.getbufsize() == bufsize
    atoms = [kernel_module._atoms(c) for c in model.components]
    for k, l in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 2)]:
        (a, va, ma), (b, vb, mb) = atoms[k], atoms[l]
        for i in range(2):
            want = block_mean(ma, reference_atom_gram(ker, i, a, b, va[i] + vb[i]), mb)
            assert st.xi_table[i, k, l] == want, (k, l, i)


def test_eps2_from_squares_stays_near_the_closed_form():
    # On point pairs E kappa_i^2 is the square of the power-1 Gram; the
    # profile's closed form at 2 gamma_i gives the same value up to rounding.
    for i in range(12):
        model, ker = translate_battery(9000 + i)
        eps2 = reference_atom_stats(model, ker, square_points=False)[2]
        assert kernel_stats(model, ker).eps2 == pytest.approx(eps2, rel=0.0, abs=1e-15)


@pytest.mark.parametrize("name", PROFILES)
@pytest.mark.parametrize("d", range(1, 9))
def test_product_stays_within_rounding_of_the_per_axis_product(name, d):
    # _product's one exponential of the summed exponents against the product
    # of the per-axis Grams.  The exponent sum adds d roundings of terms of
    # one sign, and exp turns an absolute error in its argument into a
    # relative one; each factor and the sqrt(c) add a few more.  Atom sets:
    # point pairs (var 0), a Gaussian component's atom against points
    # (var > 0 on every axis, laplace axes take their scalar mean), and
    # variances that underflow to 0 on some axes beside positive ones.  The
    # far atoms' exponents underflow, where both sides give 0.
    rng = np.random.default_rng([d, PROFILES.index(name)])
    # odd d: one profile on every axis; even d: the profile on axis 0, then drawn
    profiles = (name,) * d if d % 2 else (name, *rng.choice(PROFILES, d - 1))
    ker = KernelSpec(profiles=profiles, gamma=rng.uniform(0.2, 3.0, d))
    a = rng.normal(scale=1.5, size=(40, d))
    b = np.vstack([rng.normal(scale=1.5, size=(30, d)), rng.normal(scale=1.5, size=(6, d)) + 5000.0])
    variances = [np.zeros(d), rng.uniform(0.05, 1.0, d), np.where(rng.uniform(size=d) < 0.5, 0.0, rng.uniform(0.05, 1.0, d))]
    eps = np.finfo(float).eps
    counts = np.zeros(2, dtype=int)
    for var in variances:
        want = np.ones((a.shape[0], b.shape[0]))
        exponent = np.zeros_like(want)
        for i in range(d):
            want *= reference_atom_gram(ker, i, a, b, var[i])
            diff = a[:, i, None] - b[None, :, i]
            if ker.profiles[i] == "gaussian":
                exponent -= ker.gamma[i] / (1.0 + 2.0 * ker.gamma[i] * var[i]) * diff**2
            elif var[i] == 0.0:
                exponent -= ker.gamma[i] * np.abs(diff)
        shape = (a.shape[0], b.shape[0])
        got = kernel_module._product(ker, np.ascontiguousarray(a.T), np.ascontiguousarray(b.T), var, np.empty(shape), np.empty(shape))
        normal = want >= 1e-300
        under = exponent < -760.0
        bound = (2 * d + 4) * eps * (1.0 + np.abs(exponent[normal]))
        assert np.all(np.abs(got[normal] - want[normal]) <= bound * want[normal])
        assert np.all(got[under] == 0.0) and np.all(want[under] == 0.0)
        between = ~normal & ~under
        assert np.all(np.abs(got[between] - want[between]) <= 1e-300)
        counts += normal.sum(), under.sum()
    assert counts.min() > 0


def test_difference_block_restores_the_buffer_size_after_an_error():
    # out has the wrong shape, on the per-axis path and on the product path
    ker = KernelSpec.uniform("gaussian", 1.0, 2)
    a, b, var = np.zeros((2, 3)), np.zeros((2, 4)), np.zeros(2)
    bufsize = np.getbufsize()
    with pytest.raises(ValueError):
        kernel_module._atom_grams(ker, a, b, var, 0, (1,), (np.empty((3, 5)),))
    assert np.getbufsize() == bufsize
    with pytest.raises(ValueError):
        kernel_module._product(ker, a, b, var, np.empty((3, 5)), np.empty((3, 5)))
    assert np.getbufsize() == bufsize


@pytest.mark.filterwarnings("ignore:component self-similarities differ")
def test_blocked_statistics_stay_near_the_whole_pair_sums():
    # Row blocks add in another order than mass_a @ G @ mass_b, so the
    # statistics may move in the last bits only.
    cases = [translate_battery(9000 + i) for i in range(12)] + [mixed_model()]
    model = translated_supports(700)
    cases += [(model, KernelSpec.uniform(name, 1.0, model.dim)) for name in PROFILES]
    for model, ker in cases:
        st = kernel_stats(model, ker)
        xi_table, sigma2_per, eps2 = pairwise_kernel_stats(model, ker)
        np.testing.assert_allclose(st.xi_table, xi_table, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(st.sigma2_per_component, sigma2_per, rtol=1e-13, atol=0.0)
        # eps2 is a difference of means at most 1, so it is held to 1e-13 of those.
        assert st.eps2 == pytest.approx(eps2, rel=0.0, abs=1e-13)


@pytest.mark.filterwarnings("ignore:component self-similarities differ")
def test_gaussian_statistics_match_mc_reference():
    # Closed forms against paired draws, within 5 standard errors of the
    # draws' means at 200k pairs per component pair.
    n = 200_000
    for seed in range(9200, 9208):
        model, ker = mixed_profile_gaussians(seed)
        st = kernel_stats(model, ker)
        eps2, eps2_se, cross, cross_se = 0.0, 0.0, {}, {}
        for k in range(model.k):
            for l in range(k, model.k):
                x, y = reference_pairs(model, k, l, n, seed)
                vals = [profile(ker, i, np.abs(x[:, i] - y[:, i])) for i in range(model.dim)]
                for i, v in enumerate(vals):
                    m = float(v.mean())
                    assert abs(st.xi_table[i, k, l] - m) <= 5.0 * v.std() / math.sqrt(n)
                    if v.var() > eps2:
                        eps2, eps2_se = v.var(), (np.std(v**2) + 2.0 * m * v.std()) / math.sqrt(n)
                full = math.prod(vals)
                cross[k, l], cross_se[k, l] = float(full.mean()), full.std() / math.sqrt(n)
            assert abs(st.sigma2_per_component[k] - cross[k, k]) <= 5.0 * cross_se[k, k]
        assert abs(st.eps2 - eps2) <= 5.0 * eps2_se
        for k in range(model.k):
            for l in range(k + 1, model.k):
                mmd2 = cross[k, k] + cross[l, l] - 2.0 * cross[k, l]
                se = cross_se[k, k] + cross_se[l, l] + 2.0 * cross_se[k, l]
                assert abs(mmd(model, ker, k, l) ** 2 - mmd2) <= 5.0 * se


def quad_expectation(name, gamma, diff, var):
    # E g(|z|) for z ~ N(diff, var) by quadrature, split at the kink z = 0.
    g = KernelSpec((name,), [gamma])
    if var == 0.0:
        return float(profile(g, 0, abs(diff)))
    s = math.sqrt(var)
    kink = min(max(-diff / s, -40.0), 40.0)

    def f(u):
        density = math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
        return float(profile(g, 0, abs(diff + s * u))) * density

    opts = dict(epsabs=0.0, epsrel=1e-13, limit=500)
    return quad(f, -40.0, kink, **opts)[0] + quad(f, kink, 40.0, **opts)[0]


def test_laplace_closed_form_matches_quadrature():
    for diff in (-7.0, -1.3, 0.0, 0.4, 3.0, 25.0):
        for var in (1e-4, 0.09, 1.0, 30.0, 800.0):
            for gamma in (0.3, 2.0):
                got = kernel_module._laplace_mean(diff, var, gamma)
                assert got == pytest.approx(quad_expectation("laplace", gamma, diff, var), rel=1e-9)
    # Where exp(gamma^2 var / 2 -+ gamma diff) overflows, each term is
    # exp(-diff^2 / (2 var)) times the scaled erfc instead.
    for (diff, var, gamma), want in (((0.0, 800.0, 2.0), 0.0141003360), ((5.0, 2000.0, 1.0), 0.0177213398)):
        naive_x = (gamma * var - diff) / math.sqrt(2.0 * var)
        with pytest.raises(OverflowError):
            math.exp(0.5 * gamma**2 * var - gamma * diff) * math.erfc(naive_x)
        got = kernel_module._laplace_mean(diff, var, gamma)
        assert got == pytest.approx(want, rel=1e-8)
        assert got == pytest.approx(quad_expectation("laplace", gamma, diff, var), rel=1e-9)
    # a point pair (var 0) reads the profile itself, bit for bit
    diffs = np.array([[-2.5, 0.0, 1.5]])
    for name in PROFILES:
        ker = KernelSpec((name,), [0.7])
        t = kernel_module._distance(name, diffs.copy(), 0.0)
        got = kernel_module._atom_expectation(name, ker.gamma[0], t, 0.0, np.empty_like(t))
        assert np.array_equal(got, profile(ker, 0, np.abs(diffs)))


def mixed_model():
    comps = (
        Component.discrete([[0.0, 0.3], [0.4, -0.2], [-0.3, 0.1]], [0.5, 0.3, 0.2]),
        Component.gaussian([2.0, 0.5], [0.4, 0.7]),
        Component.discrete([[4.1, -0.6], [3.6, 0.2]], [0.6, 0.4]),
        Component.gaussian([6.0, -0.4], [0.9, 0.3]),
    )
    model = MixtureModel.create(comps, [0.3, 0.2, 0.25, 0.25])
    return model, KernelSpec(profiles=("gaussian", "laplace"), gamma=[0.8, 1.3])


def test_mixed_model_statistics_match_quadrature():
    model, ker = mixed_model()

    def atoms(c):
        if c.support is None:
            return c.mean[None, :], c.stddev**2, np.ones(1)
        return c.support, np.zeros(model.dim), c.mass

    def expect(k, l, axes, power=1):
        # E prod_{i in axes} kappa_i(x, y)^power, summed over support points
        (a, va, ma), (b, vb, mb) = atoms(model.components[k]), atoms(model.components[l])
        return sum(
            ma[p] * mb[q] * math.prod(
                quad_expectation(ker.profiles[i], power * ker.gamma[i], a[p, i] - b[q, i], va[i] + vb[i])
                for i in axes
            )
            for p in range(len(ma))
            for q in range(len(mb))
        )

    with pytest.warns(UserWarning, match="self-similarities"):
        st = kernel_stats(model, ker)
    axes = range(model.dim)
    eps2 = 0.0
    for k in range(model.k):
        assert st.sigma2_per_component[k] == pytest.approx(expect(k, k, axes), rel=1e-9)
        for l in range(model.k):
            for i in axes:
                want = expect(k, l, [i])
                assert st.xi_table[i, k, l] == pytest.approx(want, rel=1e-9)
                eps2 = max(eps2, expect(k, l, [i], power=2) - want**2)
            if k != l:
                want = math.sqrt(expect(k, k, axes) + expect(l, l, axes) - 2.0 * expect(k, l, axes))
                assert mmd(model, ker, k, l) == pytest.approx(want, rel=1e-9)
    assert st.eps2 == pytest.approx(eps2, rel=1e-9)
    tree = build_kernel_mmdt(model, ker, st, seed=0)
    check_structure(tree, st)


def test_mc_paths_with_gaussian_components(monkeypatch):
    comps = (
        Component.gaussian([0.0, 0.0], [0.3, 0.3]),
        Component.gaussian([4.0, 0.2], [0.3, 0.3]),
    )
    model = MixtureModel.create(comps, [0.5, 0.5])
    ker = KernelSpec.uniform("gaussian", 0.4, 2)
    st = kernel_stats(model, ker)
    assert 0.0 < st.sigma2 < 1.0 and st.tau < st.sigma2
    # closed form for gaussian profile with gaussian marginals:
    # E exp(-g (x - y)^2) = exp(-g D^2 / (1 + 2 g s^2)) / sqrt(1 + 2 g s^2)
    g, s2, dist = 0.4, 0.3**2 + 0.3**2, 4.0
    want = math.exp(-g * dist**2 / (1 + 2 * g * s2)) / math.sqrt(1 + 2 * g * s2)
    assert st.xi_table[0, 0, 1] == pytest.approx(want, rel=1e-12)
    assert mmd(model, ker, 0, 1) > 0.5
    tree = build_kernel_mmdt(model, ker, st, seed=0)
    monkeypatch.setattr(kernel_module, "_MC_EMBED_ROWS", 512)
    rep = kernel_price(model, tree, n=4000, seed=5)
    assert rep.price == pytest.approx(1.0, abs=0.1)
    assert rep.error_rate < 0.05


def test_kernel_price_exact_matches_brute_force():
    model, ker = translate_battery(404)
    st = kernel_stats(model, ker)
    tree = build_kernel_mmdt(model, ker, st, seed=1)
    rep = kernel_price(model, tree)
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
            mi * mj * similarity(ker, ri, rj)
            for ri, mi in zip(rows, masses)
            for rj, mj in zip(rows, masses)
        )
        cross = sum(mi * similarity(ker, x, ri) for ri, mi in zip(rows, masses))
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
    rep = kernel_price(model, tree)
    assert rep.price == 1.0 and rep.error_rate == 0.0


@pytest.mark.filterwarnings("ignore:component self-similarities differ")
def test_kernel_price_mc_mode(monkeypatch):
    # The model decides the path: exact when every component is discrete,
    # MC as soon as one is not.
    model, ker = translate_battery(300)
    tree = build_kernel_mmdt(model, ker, kernel_stats(model, ker), seed=0)
    exact = kernel_price(model, tree, n=5000, seed=4)
    assert exact.mc_samples == 0 and exact == kernel_price(model, tree, seed=4)
    mixed, ker = mixed_model()
    tree = build_kernel_mmdt(mixed, ker, kernel_stats(mixed, ker), seed=0)
    assert kernel_price(mixed, tree, n=1000, seed=4).mc_samples == 1000
    with pytest.raises(ValidationError, match="n >= 100"):
        kernel_price(mixed, tree)
    # The MC baseline cost estimates sum_k p_k (1 - sigma2_k), which the
    # statistics give in closed form.
    model, ker, tree = overlapping_gaussians()
    st = kernel_stats(model, ker)
    monkeypatch.setattr(kernel_module, "_MC_EMBED_ROWS", 512)
    rep = kernel_price(model, tree, n=5000, seed=4)
    assert rep.mc_samples == 5000
    want = float(model.weights @ (1.0 - st.sigma2_per_component))
    assert rep.baseline_cost == pytest.approx(want, rel=0.02)


def dense_kernel_price(model, tree, n=0, seed=0):
    # Reference: the five separate Gram products per component and leaf that
    # the blocked single pass replaced (self-similarity, own rows, assigned
    # rows, leaf norm, leaf cross term).  An all-discrete model uses every
    # support row; any other model the first MC rows of each component and
    # leaf, or two fresh draws for a component without draws.
    ker = tree.kernel
    exact = model.all_discrete()
    if exact:
        cap = None
        pts = np.vstack([c.support for c in model.components])
        w = np.concatenate([model.weights[k] * c.mass for k, c in enumerate(model.components)])
        comp = np.concatenate([np.full(c.support.shape[0], k) for k, c in enumerate(model.components)])
        comp_support = [c.support for c in model.components]
        comp_mass = [c.mass for c in model.components]
    else:
        cap = kernel_module._MC_EMBED_ROWS
        rng = np.random.default_rng(seed)
        comp = rng.choice(model.k, size=n, p=model.weights)
        pts = np.empty((n, model.dim))
        for k, c in enumerate(model.components):
            if (comp == k).any():
                pts[comp == k] = c.sample(rng, int((comp == k).sum()))
        w = np.full(n, 1.0 / n)
        comp_support, comp_mass = [], []
        for k in range(model.k):
            rows = pts[comp == k][:cap]
            if rows.shape[0] == 0:
                rows = model.components[k].sample(np.random.default_rng(seed ^ (k + 1)), 2)
            comp_support.append(rows)
            comp_mass.append(np.full(rows.shape[0], 1.0 / rows.shape[0]))
    assigned = assign_components(tree, pts)

    def cross(points, support, mass):
        return full_gram(ker, points, support) @ mass

    cost_own, cost_hat, cost_tilde = (np.empty(pts.shape[0]) for _ in range(3))
    fallbacks = []
    for k in range(model.k):
        sup, mass = comp_support[k], comp_mass[k]
        self_sim = mass @ full_gram(ker, sup, sup) @ mass
        own, mine = comp == k, assigned == k
        cost_own[own] = 1.0 + self_sim - 2.0 * cross(pts[own], sup, mass)
        cost_hat[mine] = 1.0 + self_sim - 2.0 * cross(pts[mine], sup, mass)
        if not mine.any():
            fallbacks.append(k)
            continue
        q_pts, q = pts[mine][:cap], w[mine][:cap] / w[mine][:cap].sum()
        leaf_norm = q @ full_gram(ker, q_pts, q_pts) @ q
        cost_tilde[mine] = 1.0 + leaf_norm - 2.0 * cross(pts[mine], q_pts, q)
    baseline, tree_cost = float(w @ cost_own), float(w @ cost_tilde)
    return KernelPriceReport(
        price=tree_cost / baseline,
        price_hat=float(w @ cost_hat) / baseline,
        error_rate=float(w @ (assigned != comp)),
        baseline_cost=baseline,
        tree_cost=tree_cost,
        mc_samples=0 if exact else n,
        mc_seed=seed,
        fallback_leaves=tuple(fallbacks),
    )


def assert_matches_dense(model, tree, **kwargs):
    got = kernel_price(model, tree, **kwargs)
    want = dense_kernel_price(model, tree, **kwargs)
    assert got.error_rate == want.error_rate
    assert got.fallback_leaves == want.fallback_leaves
    for field in ("price", "price_hat", "baseline_cost", "tree_cost"):
        assert getattr(got, field) == pytest.approx(getattr(want, field), rel=1e-12, abs=0.0)
    return got


def test_kernel_price_matches_dense_on_translate_battery():
    for i in range(30):
        model, ker = translate_battery(8000 + i)
        tree = build_kernel_mmdt(model, ker, kernel_stats(model, ker), seed=i)
        assert_matches_dense(model, tree)


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
def test_kernel_price_matches_dense_with_misrouted_rows(monkeypatch):
    for seed in range(3):
        model = mislabeled_moments(seed)
        ker = KernelSpec.uniform("gaussian", 1.0, model.dim)
        tree = build_kernel_mmdt(model, ker, kernel_stats(model, ker), seed=seed)
        assert assert_matches_dense(model, tree).error_rate > 0.0
        # exact mode uses every row of a leaf, whatever the mc cap
        with monkeypatch.context() as patch:
            patch.setattr(kernel_module, "_MC_EMBED_ROWS", 64)
            assert_matches_dense(model, tree)


def overlapping_gaussians():
    comps = tuple(Component.gaussian([2.0 * j, 0.0, 0.0], [0.8, 0.3, 0.3]) for j in range(3))
    model = MixtureModel.create(comps, [0.3, 0.3, 0.4])
    ker = KernelSpec(profiles=("gaussian", "laplace", "gaussian"), gamma=[0.5, 1.0, 2.0])
    tree = build_kernel_mmdt(model, ker, kernel_stats(model, ker), seed=1)
    return model, ker, tree


def test_kernel_price_matches_dense_in_mc_mode(monkeypatch):
    # Components and leaves differ, so with 64-row prefixes the component's
    # and the leaf's reference points are different draws.
    model, ker, tree = overlapping_gaussians()
    assert_matches_dense(model, tree, n=500, seed=5)
    monkeypatch.setattr(kernel_module, "_MC_EMBED_ROWS", 64)
    for seed in (3, 4):
        rep = assert_matches_dense(model, tree, n=3000, seed=seed)
        assert rep.error_rate > 0.0


def without_draws(model):
    weights = np.full(model.k, 1.0)
    weights[0] = 1e-9
    return MixtureModel.create(model.components, weights / weights.sum())


@pytest.mark.filterwarnings("ignore:component self-similarities differ")
def test_kernel_price_mc_component_without_draws():
    # A near-zero-weight component gets no draws, so its reference points are
    # two fresh draws.  Far from the others its leaf stays empty; among
    # overlapping gaussians other components' rows are routed to its leaf.
    far = (Component.gaussian([30.0, 30.0], [0.3, 0.3]),)
    comps = far + tuple(Component.gaussian([3.0 * j, 0.0], [0.3, 0.5]) for j in range(3))
    model = MixtureModel.create(comps, np.full(4, 0.25))
    ker = KernelSpec.uniform("gaussian", 0.5, 2)
    tree = build_kernel_mmdt(model, ker, kernel_stats(model, ker), seed=0)
    rep = assert_matches_dense(without_draws(model), tree, n=400, seed=2)
    assert 0 in rep.fallback_leaves
    model, ker, tree = overlapping_gaussians()
    rep = assert_matches_dense(without_draws(model), tree, n=3000, seed=6)
    assert rep.fallback_leaves == ()


def test_kernel_price_mc_memory_is_bounded():
    comps = tuple(Component.gaussian([2.5 * j, 0.0, 0.0, 0.0], [0.1] * 4) for j in range(5))
    model = MixtureModel.create(comps, np.full(5, 0.2))
    ker = KernelSpec.uniform("gaussian", 1.0, 4)
    tree = build_kernel_mmdt(model, ker, kernel_stats(model, ker), seed=0)
    tracemalloc.start()
    try:
        rep = kernel_price(model, tree, n=50_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.error_rate == 0.0 and rep.fallback_leaves == ()
    assert peak < 64 * 2**20
    # Every row lies in its own component's leaf, so the leaf's prefix of
    # draws is the component's: the two embeddings, and prices, coincide.
    assert rep.price == rep.price_hat == 1.0


def translated_supports(S, k=3, d=2, seed=0):
    # K translates of one S-point law, 3 apart on the first axis.
    base = np.random.default_rng(seed).normal(scale=0.2, size=(S, d))
    offset = np.zeros(d)
    offset[0] = 3.0
    comps = tuple(Component.discrete(base + j * offset, np.full(S, 1.0 / S)) for j in range(k))
    return MixtureModel.create(comps, np.full(k, 1.0 / k))


def traced_peak(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("S", [500, 2000])
def test_statistics_memory_is_bounded_in_the_support_size(S):
    # Three Gram blocks of 512 KB and O(S d) besides: no S x S array, so the
    # peak stays flat in S.
    model = translated_supports(S)
    ker = KernelSpec.uniform("gaussian", 1.0, model.dim)
    assert traced_peak(kernel_stats, model, ker) < 4 * 2**20
    assert traced_peak(mmd, model, ker, 0, 1) < 4 * 2**20


@pytest.mark.parametrize("S", [1000, 2000])
def test_kernel_price_exact_memory_is_two_gram_blocks(S):
    # Two Gram-block buffers per call, and O(rows) besides.
    model = translated_supports(S)
    ker = KernelSpec.uniform("gaussian", 1.0, model.dim)
    tree = build_kernel_mmdt(model, ker, kernel_stats(model, ker), seed=0)
    rows = model.k * S
    assert traced_peak(kernel_price, model, tree) <= 2 * kernel_module._GRAM_BLOCK * 8 + 48 * rows * 8


def test_kernel_build_memory_stays_flat_on_a_deep_tree():
    # A caterpillar xi table: the lowest remaining component anchors every
    # node, and its row splits off only itself.  With every ancestor's
    # (d, |C|, |C|) block alive, K=100 and d=20 held 54.7 MB at the peak.
    K = 100
    model, ker, stats = caterpillar_kernel_stats(K, 20)
    tracemalloc.start()
    try:
        tree = build_kernel_mmdt(model, ker, stats, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    assert max(node_depths(tree)) >= K // 2
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.filterwarnings("ignore:component self-similarities differ")
def test_kernel_price_exact_uses_every_row_of_large_leaves():
    # Both leaves hold more support rows than the mc prefix length.
    model = mislabeled_moments(0, n=4500, k=2, d=1)
    ker = KernelSpec.uniform("gaussian", 1.0, model.dim)
    tree = build_kernel_mmdt(model, ker, kernel_stats(model, ker), seed=0)
    pts = np.vstack([c.support for c in model.components])
    assert np.bincount(assign_components(tree, pts)).min() > kernel_module._MC_EMBED_ROWS
    want = dense_kernel_price(model, tree)
    assert want.error_rate > 0.0
    for seed in (0, 1, 2):
        got = kernel_price(model, tree, seed=seed)
        assert got.error_rate == want.error_rate and got.fallback_leaves == ()
        for field in ("price", "price_hat", "baseline_cost", "tree_cost"):
            assert getattr(got, field) == pytest.approx(getattr(want, field), rel=1e-12, abs=0.0)


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
