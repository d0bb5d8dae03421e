import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmdt import (
    Component,
    LabeledDataset,
    MixtureModel,
    ValidationError,
    empirical_moments,
    enr,
    fit_gmm,
    sample,
)
from mmdt.adversarial import gen_b3
from mmdt.io import load_mixture, save_mixture
from mmdt.mixture import (
    DISCRETE,
    GAUSSIAN,
    VARIANCE_FLOOR,
    _e_step,
    _farthest_point_seeds,
    _m_step,
    array_fingerprint,
)

from conftest import as_labeled_dataset, gaussian_battery, random_discrete_model, scale_shift
from oracles import log_likelihood, snr


def two_comp(means, sigma):
    comps = tuple(Component.gaussian(m, sigma) for m in means)
    return MixtureModel.create(comps, np.full(len(means), 1.0 / len(means)), sigma=sigma)


def test_component_invariants():
    with pytest.raises(ValidationError):
        Component.gaussian([0.0], [0.0])
    with pytest.raises(ValidationError):
        Component(kind="finite-discrete", mean=[0.0], support=[[1.0]], mass=[0.5])
    with pytest.raises(ValidationError):
        Component(kind="finite-discrete", mean=[0.5], support=[[0.0], [1.0]], mass=[0.9, 0.1])
    c = Component.discrete([[0.0], [1.0]], [0.25, 0.75])
    assert c.mean[0] == pytest.approx(0.75)


def test_model_invariants():
    with pytest.raises(ValidationError):
        two_comp([[0.0], [0.0]], [1.0])  # duplicate means
    with pytest.raises(ValidationError):
        MixtureModel.create(
            (Component.gaussian([0.0], [1.0]), Component.gaussian([1.0], [1.0])),
            [0.9, 0.1],
            alpha=1.0,  # 0.9 > alpha/K
        )
    m = two_comp([[0.0], [1.0]], [1.0])
    assert m.alpha == pytest.approx(1.0)


def test_model_rejects_duplicate_means_lowest_pair():
    a, b = [0.0, 1.0], [2.0, -1.0]
    with pytest.raises(ValidationError, match="components 0 and 2 share the same mean"):
        two_comp([a, b, a, b], [1.0, 1.0])
    # the pair with the lowest first index wins over an earlier-closing pair
    with pytest.raises(ValidationError, match="components 0 and 3 share the same mean"):
        two_comp([a, b, b, a], [1.0, 1.0])
    with pytest.raises(ValidationError, match="components 1 and 2 share the same mean"):
        two_comp([[5.0, 5.0], a, a, a], [1.0, 1.0])
    # -0.0 == 0.0, as np.array_equal has it: still one mean
    with pytest.raises(ValidationError, match="components 1 and 2 share the same mean"):
        two_comp([b, [0.0, 1.0], [-0.0, 1.0]], [1.0, 1.0])
    # means differing in one coordinate only are distinct
    assert two_comp([a, [0.0, np.nextafter(1.0, 2.0)]], [1.0, 1.0]).k == 2


def test_enr_examples():
    m = two_comp([[0.0, 0.0], [3.0, 4.0]], [1.0, 2.0])
    assert enr(m) == pytest.approx(9.0)  # max(9/1, 16/4)
    assert snr(m) == pytest.approx(13.0)  # 9 + 4
    m3 = two_comp([[0.0], [5.0], [10.0]], [1.0])
    assert enr(m3) == pytest.approx(25.0)  # closest pair governs
    single = MixtureModel.create((Component.gaussian([0.0], [1.0]),), [1.0])
    with pytest.raises(ValidationError, match="at least two components"):
        enr(single)
    # 1-D identity
    m1 = two_comp([[0.0], [3.0]], [2.0])
    assert enr(m1) == pytest.approx(snr(m1))


def test_enr_snr_equal_the_whole_pair_array():
    # One row of pairs at a time takes the same max, min and per-pair sums
    # as the whole (pairs, d) array, so the bits do not move.
    models = [gaussian_battery(i) for i in range(60)] + [random_discrete_model(i) for i in range(300, 340)]
    for model in models:
        a, b = np.triu_indices(model.k, 1)
        gaps = (model.means()[a] - model.means()[b]) ** 2 * (1.0 / model.sigma**2)
        assert enr(model) == float(gaps.max(axis=1).min())
        assert snr(model) == float(gaps.sum(axis=1).min())


def test_enr_memory_is_linear_in_k():
    # The whole (K(K-1)/2, d) array of pair gaps would take 249 MiB here.
    rng = np.random.default_rng(0)
    model = MixtureModel.create(
        tuple(Component.gaussian(rng.uniform(-30.0, 30.0, 50), np.ones(50)) for _ in range(800)), np.full(800, 1 / 800)
    )
    tracemalloc.start()
    try:
        enr(model)
        snr(model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_stddevs_table():
    model = MixtureModel.create(
        (Component.gaussian([0.0, 1.0], [2.0, 3.0]), Component.discrete([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5])),
        [0.5, 0.5],
    )
    assert model.stddevs()[0].tolist() == [2.0, 3.0]
    assert np.isnan(model.stddevs()[1]).all()
    assert not model.stddevs().flags.writeable


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_enr_ge_snr_over_d(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 6))
    d = int(rng.integers(1, 7))
    means = rng.normal(scale=5.0, size=(k, d))
    sigma = rng.uniform(0.2, 3.0, size=d)
    m = MixtureModel.create(
        tuple(Component.gaussian(means[j], sigma) for j in range(k)),
        np.full(k, 1.0 / k),
        sigma=sigma,
    )
    assert enr(m) >= snr(m) / d - 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_enr_snr_affine_invariant(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 5))
    means = rng.normal(scale=4.0, size=(3, d))
    sigma = rng.uniform(0.3, 2.0, size=d)
    m = MixtureModel.create(
        tuple(Component.gaussian(means[j], sigma) for j in range(3)),
        np.full(3, 1.0 / 3.0),
        sigma=sigma,
    )
    a = rng.uniform(0.1, 5.0, size=d)
    b = rng.normal(scale=3.0, size=d)
    mapped = scale_shift(m, a, b)
    assert enr(mapped) == pytest.approx(enr(m), rel=1e-9)
    assert snr(mapped) == pytest.approx(snr(m), rel=1e-9)


def test_sample_point_mass_and_determinism():
    point = MixtureModel.create((Component.discrete([[2.0, -1.0]], [1.0]),), [1.0])
    data = sample(point, 50, seed=1)
    assert np.all(data.points == [2.0, -1.0])
    assert np.all(data.labels == 0)

    m = two_comp([[0.0], [30.0]], [1.0])
    d1 = sample(m, 1000, seed=7)
    d2 = sample(m, 1000, seed=7)
    assert d1.points.tobytes() == d2.points.tobytes()
    assert d1.labels.tobytes() == d2.labels.tobytes()
    assert sample(m, 1000, seed=8).points.tobytes() != d1.points.tobytes()


def test_sample_near_degenerate_weights():
    comps = (Component.gaussian([0.0], [1.0]), Component.gaussian([5.0], [1.0]))
    m = MixtureModel.create(comps, [1.0 - 1e-12, 1e-12], alpha=2.0)
    data = sample(m, 10_000, seed=0)
    assert np.mean(data.labels == 0) == pytest.approx(1.0, abs=1e-3)


def test_sample_mean_clt():
    m = MixtureModel.create((Component.gaussian([1.5, -2.0], [2.0, 0.5]),), [1.0])
    n = 1_000_000
    data = sample(m, n, seed=42)
    tol = 5.0 * np.array([2.0, 0.5]) / np.sqrt(n)
    assert np.all(np.abs(data.points.mean(axis=0) - [1.5, -2.0]) <= tol)


def test_fit_gmm_round_trip():
    truth = two_comp([[-10.0], [10.0]], [1.0])
    data = sample(truth, 2000, seed=1)
    model = fit_gmm(data, 2, seed=0)
    fitted = sorted(float(c.mean[0]) for c in model.components)
    assert abs(fitted[0] + 10.0) < 0.2 and abs(fitted[1] - 10.0) < 0.2
    assert model.alpha == pytest.approx(2 * float(model.weights.max()))


def test_fit_gmm_k1_closed_form():
    rng = np.random.default_rng(3)
    pts = rng.normal(loc=4.0, scale=2.0, size=(500, 1))
    model = fit_gmm(LabeledDataset(points=pts), 1, seed=0)
    assert model.components[0].mean[0] == pytest.approx(pts.mean(), abs=1e-6)
    assert model.components[0].stddev[0] ** 2 == pytest.approx(pts.var(), rel=1e-4)


def test_fit_gmm_constant_dataset_floors_variance():
    pts = np.full((20, 2), 3.0)
    model = fit_gmm(LabeledDataset(points=pts), 1, seed=0)
    assert np.all(model.components[0].stddev ** 2 == pytest.approx(VARIANCE_FLOOR))
    assert np.all(model.sigma > 0)


def test_fit_gmm_loglik_monotone():
    truth = MixtureModel.create(
        (
            Component.gaussian([0.0, 0.0], [1.0, 1.0]),
            Component.gaussian([4.0, -3.0], [0.5, 2.0]),
            Component.gaussian([-5.0, 5.0], [1.5, 1.0]),
        ),
        [0.3, 0.4, 0.3],
    )
    data = sample(truth, 1500, seed=9)
    _, history = fit_gmm(data, 3, seed=2, return_history=True)
    assert len(history) >= 2
    assert all(b >= a - 1e-7 * max(1.0, abs(a)) for a, b in zip(history, history[1:]))


def test_fit_gmm_rejects_nonfinite():
    pts = np.array([[0.0], [np.nan]])
    with pytest.raises(ValidationError):
        fit_gmm(LabeledDataset(points=np.array([[0.0], [1.0]])), 3)  # N < K
    with pytest.raises(ValidationError):
        LabeledDataset(points=pts)


def test_empirical_moments_on_expanded_instance():
    inst = gen_b3(4)
    data = as_labeled_dataset(inst.model)
    model = empirical_moments(data, 2)
    np.testing.assert_allclose(model.means(), inst.model.means(), atol=1e-12)
    np.testing.assert_allclose(model.weights, inst.model.weights, atol=1e-12)
    np.testing.assert_allclose(model.sigma, inst.model.sigma, atol=1e-9)


def test_empirical_moments_shuffle_invariant():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(40, 3))
    labels = rng.integers(0, 2, size=40)
    data = LabeledDataset(points=pts, labels=labels)
    perm = rng.permutation(40)
    shuffled = LabeledDataset(points=pts[perm], labels=labels[perm])
    a = empirical_moments(data, 2)
    b = empirical_moments(shuffled, 2)
    assert a.to_dict() == b.to_dict()


def test_empirical_moments_missing_class():
    data = LabeledDataset(points=np.zeros((3, 1)) + [[0.0], [1.0], [2.0]], labels=[0, 0, 1])
    with pytest.raises(ValidationError, match="label class"):
        empirical_moments(data, 3)


def test_empirical_moments_rejects_label_not_below_k():
    # Rows labeled k or above would drop out of every component, and the
    # weights would then fail to sum to one.
    data = LabeledDataset(points=[[0.0], [1.0], [2.0], [3.0], [4.0]], labels=[0, 0, 1, 2, 1])
    with pytest.raises(ValidationError, match=r"^label 2 is not a component index below k=2$"):
        empirical_moments(data, 2)


def test_sum_checks_print_plain_floats():
    with pytest.raises(ValidationError, match=r"^masses sum to 0\.8, expected 1$"):
        Component.discrete([[0.0], [1.0]], [0.5, 0.3])
    comps = (Component.gaussian([0.0], [1.0]), Component.gaussian([5.0], [1.0]))
    with pytest.raises(ValidationError, match=r"^weights sum to 0\.8, expected 1$"):
        MixtureModel.create(comps, [0.5, 0.3], alpha=2.0)


def test_empirical_moments_variance_floor():
    # two identical points per class: zero spread on every axis
    pts = np.array([[1.0], [1.0], [-1.0], [-1.0]])
    data = LabeledDataset(points=pts, labels=[0, 0, 1, 1])
    model = empirical_moments(data, 2)
    assert np.all(model.sigma ** 2 == pytest.approx(VARIANCE_FLOOR))


def test_log_likelihood_matches_history():
    truth = two_comp([[-3.0], [3.0]], [1.0])
    data = sample(truth, 400, seed=4)
    model, history = fit_gmm(data, 2, seed=0, return_history=True)
    # history entries are pre-update; the final model can only improve on the
    # last recorded value
    assert log_likelihood(model, data) >= history[-1] - 1e-7 * abs(history[-1])


def _dense_e_step(points, means, variances, weights):
    # Reference E-step on the (n, K, d) difference tensor: logaddexp, then a
    # second exp.  Returns log_norm (n,) and resp (n, K).
    d = points.shape[1]
    diff = points[:, None, :] - means[None, :, :]
    mahal = np.sum(diff**2 / variances[None, :, :], axis=2)
    logdet = np.sum(np.log(variances), axis=1)
    log_prob = -0.5 * (d * np.log(2.0 * np.pi) + logdet[None, :] + mahal) + np.log(weights)
    log_norm = np.logaddexp.reduce(log_prob, axis=1)
    return log_norm, np.exp(log_prob - log_norm[:, None])


def _dense_m_step(points, resp):
    nk = resp.sum(axis=0)
    means = (resp.T @ points) / nk[:, None]
    diff2 = (points[:, None, :] - means[None, :, :]) ** 2
    variances = np.einsum("nk,nkd->kd", resp, diff2) / nk[:, None]
    return nk / points.shape[0], means, np.maximum(variances, VARIANCE_FLOOR)


def _dense_farthest_point_seeds(points, k, rng):
    # Squared distances with the squares added axis by axis from the first,
    # as _farthest_point_seeds adds them.
    def sq_dist(center):
        sq = (points - center) ** 2
        d2 = sq[:, 0]
        for j in range(1, points.shape[1]):
            d2 = d2 + sq[:, j]
        return d2

    n = points.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = sq_dist(points[chosen[0]])
    for _ in range(1, k):
        nxt = int(np.argmax(d2))
        chosen.append(nxt)
        d2 = np.minimum(d2, sq_dist(points[nxt]))
    return points[chosen].copy()


def _dense_fit_gmm(points, k, seed, max_iters=200, tol=1e-6):
    """Reference EM.  Returns the final (means, variances, weights), the
    log-likelihood history, the (means, variances, weights) state entering
    every E-step, and the number of reseeds."""
    n, d = points.shape
    means = _dense_farthest_point_seeds(points, k, np.random.default_rng(seed))
    variances = np.ones((k, d))
    weights = np.full(k, 1.0 / k)
    history, states, prev_ll, reseeds = [], [], -np.inf, 0
    for _ in range(max_iters):
        states.append((means.copy(), variances.copy(), weights.copy()))
        log_norm, resp = _dense_e_step(points, means, variances, weights)
        ll = float(log_norm.sum())
        history.append(ll)
        if ll - prev_ll < tol and np.isfinite(prev_ll):
            break
        prev_ll = ll
        empty = resp.sum(axis=0) < 1e-10
        if np.any(empty):
            reseeds += 1
            worst = np.argsort(log_norm, kind="stable")
            for rank, j in enumerate(np.flatnonzero(empty)):
                means[j] = points[worst[rank]]
                variances[j] = np.maximum(points.var(axis=0), VARIANCE_FLOOR)
                weights[j] = 1.0 / n
            weights = weights / weights.sum()
            prev_ll = -np.inf
            continue
        weights, means, variances = _dense_m_step(points, resp)
    return (means, variances, weights), history, states, reseeds


def _em_battery(i):
    """Seeded EM inputs: blobs at various offsets and scales; i % 4 == 3 adds
    a constant column."""
    rng = np.random.default_rng(700 + i)
    k, d = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    n = int(rng.integers(k, 400))
    centers = rng.uniform(-10.0, 10.0, size=(k, d)) * rng.choice([0.3, 3.0])
    pts = centers[rng.integers(0, k, n)] + rng.normal(size=(n, d)) * rng.uniform(0.2, 2.0, d)
    pts += rng.choice([0.0, 1e4])
    if i % 4 == 3:
        pts[:, int(rng.integers(0, d))] = 2.5
    return pts, k, i


def _reseed_case(seed):
    """Tiny rounded datasets on which the reference EM reseeds a component
    that went empty (found by a seeded search)."""
    rng = np.random.default_rng(seed)
    n, d, k = int(rng.integers(4, 40)), int(rng.integers(1, 4)), int(rng.integers(2, 6))
    pts = np.round(rng.normal(size=(n, d)) * rng.choice([1, 5, 50], size=d), int(rng.integers(0, 2)))
    return pts, k, seed


_EM_CASES = [_em_battery(i) for i in range(24)] + [
    _reseed_case(s) for s in (8760, 8883, 11576, 13820)
]


# The two nonzero points have equal squared norms in exact arithmetic (one
# permutes the other's coordinates).  Summed by rows, the last one's reads an
# ulp higher; an einsum reads them equal and so picks the first.  Seeds 11 and
# 14 start at the origin, seed 0 at the last point.
_SEED_TIE = np.array([[0.0, 0.0, 0.0, 0.0], [0.1, -2.1, 2.7, 2.7], [-2.1, 2.7, 2.7, 0.1]])


@pytest.mark.parametrize(
    "points, k, seed", _EM_CASES + [(_SEED_TIE, 2, 11), (_SEED_TIE, 3, 14), (_SEED_TIE, 3, 0)]
)
def test_farthest_point_seeds_match_dense_reference(points, k, seed):
    got = _farthest_point_seeds(np.ascontiguousarray(points.T), k, np.random.default_rng(seed))
    want = _dense_farthest_point_seeds(points, k, np.random.default_rng(seed))
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", range(160))
def test_farthest_point_seeds_add_squares_in_axis_order(seed):
    # d = 9..12 on a 0.1 grid, where numpy's row sum adds pairwise: distances
    # equal in exact arithmetic round by their order of addition, and seeds
    # 136 and 151 pick another point if the squares are summed by rows.
    rng = np.random.default_rng(900 + seed)
    k, d = int(rng.integers(2, 6)), int(rng.integers(9, 13))
    points = rng.integers(-4, 5, size=(int(rng.integers(20, 200)), d)) * 0.1
    got = _farthest_point_seeds(np.ascontiguousarray(points.T), k, np.random.default_rng(seed))
    want = _dense_farthest_point_seeds(points, k, np.random.default_rng(seed))
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("points, k, seed", _EM_CASES)
def test_em_steps_match_dense_reference(points, k, seed):
    # Every step along the reference trajectory, from the same state: sums
    # taken axis by axis over columns reorder the reference's sums, so
    # agreement is to rounding.
    columns = np.ascontiguousarray(points.T)
    _, _, states, reseeds = _dense_fit_gmm(points, k, seed)
    assert (reseeds > 0) == (seed >= 8760)
    for means, variances, weights in states:
        ref_norm, ref_resp = _dense_e_step(points, means, variances, weights)
        log_norm, resp = _e_step(columns, means, variances, weights)
        assert log_norm.sum() == pytest.approx(ref_norm.sum(), rel=1e-12)
        np.testing.assert_allclose(log_norm, ref_norm, rtol=1e-12, atol=1e-12 * np.abs(ref_norm).max())
        np.testing.assert_allclose(resp, ref_resp.T, rtol=0, atol=1e-12)
        ref_resp = np.ascontiguousarray(ref_resp.T)
        nk = ref_resp.sum(axis=1)
        if np.any(nk < 1e-10):
            continue
        for got, want in zip(_m_step(columns, ref_resp, nk), _dense_m_step(points, ref_resp.T)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("points, k, seed", _EM_CASES)
def test_fit_gmm_matches_dense_reference(points, k, seed):
    # Whole runs take the same iterations and reseeds; slow EM runs (up to 200
    # iterations) amplify the per-step rounding, hence the looser tolerance.
    (means, variances, weights), history, _, _ = _dense_fit_gmm(points, k, seed)
    model, got_history = fit_gmm(LabeledDataset(points=points), k, seed=seed, return_history=True)
    assert len(got_history) == len(history)
    np.testing.assert_allclose(got_history, history, rtol=1e-9)
    np.testing.assert_allclose(model.means(), means, rtol=1e-9, atol=1e-9)
    got_var = np.array([c.stddev**2 for c in model.components])
    np.testing.assert_allclose(got_var, variances, rtol=1e-9)
    np.testing.assert_allclose(model.weights, weights, rtol=1e-9)


def test_fit_gmm_reseeds_components_that_die_together_apart():
    # Components 4 and 5 go empty in the same iteration.  Reseeded at one
    # point with one variance they stayed identical, and the fit ended in
    # "components 4 and 5 share the same mean"; the j-th dead component now
    # restarts at the j-th worst-explained point.
    points = np.array(
        [[1.0, 2.0], [1.0, -1.0], [0.0, 1.0], [0.0, 1.0], [2.0, 2.0], [-1.0, -1.0], [1.0, -1.0]]
    )
    (means, variances, weights), history, _, reseeds = _dense_fit_gmm(points, 6, 4077)
    assert reseeds == 1
    model, got_history = fit_gmm(LabeledDataset(points=points), 6, seed=4077, return_history=True)
    assert len(got_history) == len(history)
    np.testing.assert_allclose(got_history, history, rtol=1e-9)
    np.testing.assert_allclose(model.means(), means, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(model.weights, weights, rtol=1e-9)


def test_fit_gmm_peak_memory_is_linear():
    # n=100k, K=5, d=8: the dense (n, K, d) tensors peaked at 137 MB; the
    # per-component passes hold (K, n) plus one (n, d) buffer.
    rng = np.random.default_rng(11)
    centers = rng.uniform(-20.0, 20.0, size=(5, 8))
    data = LabeledDataset(points=centers[rng.integers(0, 5, 100_000)] + rng.normal(size=(100_000, 8)))
    tracemalloc.start()
    try:
        fit_gmm(data, 5, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6


def test_mixture_json_round_trip():
    inst = gen_b3(2)
    d = inst.model.to_dict()
    clone = MixtureModel.from_dict(d)
    assert clone.to_dict() == d
    assert clone.fingerprint() == inst.model.fingerprint()


def _fingerprint_model(gauss=((0.0, 0.0), (1.0, 1.0)), support=((0.0, 0.0), (2.0, 2.0), (4.0, 4.0)),
                       mass=(0.25, 0.5, 0.25), weights=(0.5, 0.5), sigma=(1.0, 1.0), alpha=1.5, swap=False):
    comps = [Component.gaussian(*gauss), Component.discrete(support, mass)]
    return MixtureModel.create(comps[::-1] if swap else comps, weights, alpha=alpha, sigma=sigma)


def test_fingerprint_survives_save_load_and_from_dict(tmp_path):
    for i, model in enumerate([_fingerprint_model(), gaussian_battery(3), random_discrete_model(301)]):
        path = tmp_path / f"m{i}.json"
        save_mixture(path, model)
        assert load_mixture(path).fingerprint() == model.fingerprint()
        assert MixtureModel.from_dict(model.to_dict()).fingerprint() == model.fingerprint()
    created = MixtureModel.create(_fingerprint_model().components, [0.5, 0.5])
    assert MixtureModel.from_dict(created.to_dict()).fingerprint() == created.fingerprint()


def test_fingerprint_moves_with_every_field():
    base = _fingerprint_model()
    variants = {
        "weight": _fingerprint_model(weights=(0.4, 0.6)),
        "sigma": _fingerprint_model(sigma=(1.0, 1.1)),
        "alpha": _fingerprint_model(alpha=1.6),
        "mean": _fingerprint_model(gauss=((0.0, 0.5), (1.0, 1.0))),
        "stddev": _fingerprint_model(gauss=((0.0, 0.0), (1.0, 1.5))),
        "support, same mean": _fingerprint_model(support=((1.0, 0.0), (2.0, 2.0), (3.0, 4.0))),
        "mass, same mean": _fingerprint_model(mass=(0.3, 0.4, 0.3)),
        "order": _fingerprint_model(swap=True),
    }
    prints = {name: model.fingerprint() for name, model in variants.items()}
    assert base.fingerprint() not in prints.values()
    assert len(set(prints.values())) == len(prints)
    for name in ("support, same mean", "mass, same mean"):
        assert variants[name].means().tolist() == base.means().tolist()
    one_atom = Component.discrete([[0.0, 0.0]], [1.0])
    kinds = [MixtureModel.create([c, Component.gaussian([3.0, 3.0], [1.0, 1.0])], [0.5, 0.5])
             for c in (one_atom, Component.gaussian([0.0, 0.0], [1.0, 1.0]))]
    assert kinds[0].fingerprint() != kinds[1].fingerprint()
    assert array_fingerprint(GAUSSIAN, [1.0]) != array_fingerprint(DISCRETE, [1.0])


def test_array_fingerprint_hashes_shapes():
    support = np.arange(6.0).reshape(3, 2)
    transposed = support.reshape(2, 3)
    assert transposed.tobytes() == support.tobytes()
    assert array_fingerprint(support) != array_fingerprint(transposed)
    assert array_fingerprint(support) != array_fingerprint(support.ravel())
    assert array_fingerprint(support[:1], support[1:]) != array_fingerprint(support[:2], support[2:])
    assert array_fingerprint("ab", "c") != array_fingerprint("a", "bc")
    assert array_fingerprint(np.asfortranarray(support)) == array_fingerprint(support.tolist())
    assert array_fingerprint(2.0) != array_fingerprint([2.0])
