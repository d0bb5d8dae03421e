import numpy as np
import pytest

from mmdt import (
    ValidationError,
    beta_estimate,
    enr,
    evaluate_tree,
)
from mmdt.adversarial import gen_b3, gen_thm2, gen_thm4
from mmdt.evaluate import evaluation_law
from mmdt.mixture import Component, MixtureModel

from conftest import as_labeled_dataset
from oracles import b3_canonical_tree, enumerate_valid_trees, thm4_canonical_tree


def test_thm2_targets_match_exact_computation():
    for k, m in ((2, 0), (2, 5), (3, 2)):
        inst = gen_thm2(k, m, seed=1)
        d = inst.params["d"]
        assert d == k**3
        assert enr(inst.model) == pytest.approx(inst.targets["enr"], rel=1e-9)
        assert beta_estimate(inst.model) == pytest.approx(inst.targets["beta"], rel=1e-9)
        pts, w, comp, _ = evaluation_law(inst.model, 0, 0)
        means = inst.model.means()
        base = float(w @ np.abs(pts - means[comp]).sum(axis=1))
        assert base == pytest.approx(inst.targets["baseline_l1"], rel=1e-12)


def test_thm2_centers_hamming():
    inst = gen_thm2(2, 0, seed=3)
    means = inst.model.means()
    d = inst.params["d"]
    assert np.sum(means[0] != means[1]) >= d / 4
    assert set(np.unique(means)) == {-1.0, 1.0}
    assert inst.params["verified_l"]  # agreement property recorded


def test_thm2_exhausted_retries():
    # Seed 27's first draw gives two K=2 centers that differ on fewer than
    # d/4 axes, and its second draw passes.
    with pytest.raises(ValidationError, match=r"retries exhausted .*: property 1 "):
        gen_thm2(2, 0, seed=27, max_retries=1)
    assert gen_thm2(2, 0, seed=27, max_retries=2).params["d"] == 8


def test_thm2_rejects_max_retries_below_one():
    for retries in (0, -1):
        with pytest.raises(ValidationError, match="max_retries must be >= 1"):
            gen_thm2(2, 0, seed=0, max_retries=retries)


def test_thm4_structure():
    inst = gen_thm4(3, 6)
    model = inst.model
    assert model.dim == 3 and model.k == 3
    np.testing.assert_allclose(model.means(), np.eye(3))
    assert enr(model) == pytest.approx(6.0, rel=1e-9)
    # per-axis variance 2 eps = 1/q
    for c in model.components:
        np.testing.assert_allclose(c.variances(), 1.0 / 6.0, rtol=1e-9)
    # masses sum to one per component
    for c in model.components:
        assert c.mass.sum() == pytest.approx(1.0, abs=1e-12)
    # deviations never on two axes at once
    for c in model.components:
        dev = c.support - c.mean
        assert np.max(np.count_nonzero(dev, axis=1)) <= 1


def test_thm4_k2_q2_values():
    inst = gen_thm4(2, 2)
    assert enr(inst.model) == pytest.approx(2.0, rel=1e-9)
    for c in inst.model.components:
        np.testing.assert_allclose(c.variances(), 0.5, rtol=1e-9)
    rep = evaluate_tree(inst.model, thm4_canonical_tree(inst))
    assert rep.error_rate == pytest.approx(inst.targets["canonical_error"], abs=1e-12)
    assert rep.error_rate >= inst.targets["floor"] - 1e-12


def test_thm4_rejects_small_q():
    with pytest.raises(ValidationError, match="q >= K"):
        gen_thm4(3, 2)


def test_b3_exactness_battery():
    for d in (2, 4, 8, 16, 64):
        inst = gen_b3(d)
        rep = evaluate_tree(inst.model, b3_canonical_tree(inst))
        assert rep.price_l1 == pytest.approx(1.5 - 1.0 / d, abs=1e-12)
        assert rep.baseline_cost == pytest.approx(1.0, abs=1e-12)
        assert rep.error_rate == pytest.approx(1.0 / (2 * d), abs=1e-12)


def test_b3_leaf_medians():
    from mmdt.evaluate import _leaf_centers
    from mmdt.tree import assign_components

    inst = gen_b3(8)
    tree = b3_canonical_tree(inst)
    pts, w, _, _ = evaluation_law(inst.model, 0, 0)
    assigned = assign_components(tree, pts)
    medians, _, fallbacks = _leaf_centers(pts, w, assigned, inst.model)
    assert not fallbacks
    np.testing.assert_allclose(medians[0], 0.5, atol=1e-12)
    np.testing.assert_allclose(medians[1], -0.5, atol=1e-12)


def test_enumerate_valid_trees_count():
    # K=2, separation only on axis 1 with 3 distinct support projections:
    # one tree per gap between the two means
    a = Component.discrete([[0.0], [1.0]], [0.5, 0.5])
    b = Component.discrete([[2.0]], [1.0])
    model = MixtureModel.create((a, b), [0.5, 0.5])
    # support projections: 0, 1, 2; means 0.5 and 2 -> candidates at 0.75?
    # no: thresholds must lie in [0.5, 2]: breaks {0.5, 1, 2} -> two trees
    trees = list(enumerate_valid_trees(model))
    assert len(trees) == 2
    for t in trees:
        assert sorted(t.leaves()) == [0, 1]


def test_enumerate_point_masses_zero_error():
    a = Component.discrete([[0.0, 0.0]], [1.0])
    b = Component.discrete([[3.0, 1.0]], [1.0])
    model = MixtureModel.create((a, b), [0.5, 0.5])
    for t in enumerate_valid_trees(model):
        assert evaluate_tree(model, t).error_rate == 0.0


def test_enumerate_thm4_min_is_canonical():
    for k, q in ((2, 4), (3, 3)):
        inst = gen_thm4(k, q)
        errors = [
            evaluate_tree(inst.model, t).error_rate
            for t in enumerate_valid_trees(inst.model)
        ]
        assert min(errors) == pytest.approx(inst.targets["canonical_error"], abs=1e-12)
        assert min(errors) >= inst.targets["floor"] - 1e-12


def test_enumerate_guards():
    inst = gen_thm2(2, 0, seed=1)  # 2 * (2 * 8) = 32 support points, fine
    big = gen_thm4(3, 3)
    with pytest.raises(ValidationError, match="too large"):
        next(enumerate_valid_trees(big.model, max_support=3))
    gauss = MixtureModel.create(
        (Component.gaussian([0.0], [1.0]), Component.gaussian([1.0], [1.0])), [0.5, 0.5]
    )
    with pytest.raises(ValidationError):
        next(enumerate_valid_trees(gauss))


def test_as_labeled_dataset_exact_masses():
    inst = gen_thm4(2, 8)
    data = as_labeled_dataset(inst.model)
    # empirical frequencies reproduce the joint law exactly
    pts, w, comp, _ = evaluation_law(inst.model, 0, 0)
    for row, wi, c in zip(pts, w, comp):
        match = np.all(data.points == row, axis=1) & (data.labels == c)
        assert match.sum() / data.n == pytest.approx(wi, abs=1e-12)


def test_instance_metadata_round_trip():
    inst = gen_b3(4)
    d = inst.to_dict()
    assert d["construction"] == "b3-constprice"
    assert d["targets"]["price"] == pytest.approx(1.25)
