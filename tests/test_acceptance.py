"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines as they print).

Known red: the two Wine clauses of criterion 8.  The pipeline pins a
diagonal-covariance EM estimator; on standardized Wine it reproduces the
diagonal maximum-likelihood fit exactly (cross-checked against an external
implementation), and every tree built from that fit prices at 1.13, outside
the stated [1.00, 1.12] window, which is reachable only with full-covariance
estimates.  The criterion is asserted as stated rather than loosened.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from mmdt import (
    build_kernel_mmdt,
    build_mmdt,
    enr,
    evaluate_tree,
    exact_error_rate_gaussian,
    kernel_price,
    kernel_stats,
    thm1_bound,
    thm3_bound,
    thm5_bound,
)
from mmdt.adversarial import gen_b3, gen_thm4
from mmdt.baseline import CenteredDataset, build_imm, empirical_price
from mmdt.cli import bench_rows, main
from mmdt.evaluate import BOUND_CONSTANT
from mmdt.io import load_dataset
from mmdt.kernel import check_structure as check_kernel_structure
from mmdt.mixture import Component, LabeledDataset, MixtureModel, fit_gmm, sample
from mmdt.tree import assign_components
from mmdt.tree import check_structure as check_axis_structure

from conftest import DATA_DIR, gaussian_battery, random_discrete_model, translate_battery
from oracles import b3_canonical_tree, enumerate_valid_trees, log_likelihood, mmd, thm4_canonical_tree

MC_SAMPLES = 200_000
BETA_GAUSSIAN = math.sqrt(math.pi / 2.0)


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def bound_battery():
    """50 seeded Gaussian mixtures with their trees and MC reports (shared by
    criteria 3, 4, and 11); returns (runs, wall seconds for the whole sweep)."""
    start = time.perf_counter()
    runs = []
    for i in range(50):
        model = gaussian_battery(i)
        tree = build_mmdt(model, "gaussian")
        rep = evaluate_tree(model, tree, MC_SAMPLES, seed=3000 + i)
        runs.append((model, tree, rep))
    return runs, time.perf_counter() - start


def test_criterion_01_constant_price_exactness():
    start = time.perf_counter()
    worst = 0.0
    for d in (2, 4, 8, 16, 64):
        inst = gen_b3(d)
        rep = evaluate_tree(inst.model, b3_canonical_tree(inst))
        worst = max(worst, abs(rep.price_l1 - (1.5 - 1.0 / d)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    report(1, "constant-price-exactness", ok, f"max |price - target| = {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_02_error_floor_enumeration():
    start = time.perf_counter()
    details = []
    ok = True
    for k, q in ((2, 2), (2, 8), (3, 3), (3, 12)):
        inst = gen_thm4(k, q)
        errors = [
            evaluate_tree(inst.model, t).error_rate
            for t in enumerate_valid_trees(inst.model)
        ]
        canon = evaluate_tree(inst.model, thm4_canonical_tree(inst)).error_rate
        floor = inst.targets["floor"]
        ok = ok and min(errors) >= floor - 1e-12
        ok = ok and abs(canon - min(errors)) <= 1e-12
        details.append(f"K={k},q={q}: min={min(errors):.6f} floor={floor:.6f}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    report(2, "error-floor-enumeration", ok, "; ".join(details) + f", {elapsed:.2f}s")
    assert ok


def test_criterion_03_price_bound_battery(bound_battery):
    runs, sweep_seconds = bound_battery
    min_slack = np.inf
    for model, _, rep in runs:
        bound = thm1_bound(model.alpha, BETA_GAUSSIAN, model.k, enr(model))
        slack = bound - (rep.price_l1 - 3.0 * rep.confidence_radius)
        min_slack = min(min_slack, slack)
    ok = min_slack >= 0.0 and sweep_seconds < 300.0
    report(
        3,
        "price-bound-battery",
        ok,
        f"min slack {min_slack:.4f} over 50 models, sweep {sweep_seconds:.1f}s",
    )
    assert ok


def test_criterion_04_error_bound_and_trend(bound_battery):
    runs, _ = bound_battery
    min_slack = np.inf
    enrs, exact_errors = [], []
    for model, tree, rep in runs:
        q = enr(model)
        bound = thm3_bound(model.alpha, model.k, q)
        min_slack = min(min_slack, bound - (rep.error_rate - 3.0 * rep.confidence_radius))
        enrs.append(q)
        exact_errors.append(exact_error_rate_gaussian(model, tree))
    # MC error counts at these noise levels are almost surely zero, so the
    # decile trend is checked on the closed-form error rates (fixed seeds).
    rho, pvalue = spearmanr(enrs, exact_errors)
    ok = min_slack >= 0.0 and rho < 0.0 and pvalue < 0.05
    report(
        4,
        "error-bound-and-trend",
        ok,
        f"min slack {min_slack:.5f}, spearman {rho:.3f} (p={pvalue:.4f})",
    )
    assert ok


def test_criterion_05_equidistant_worst_case():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    worst_margin = np.inf
    for _ in range(1000):
        k = int(rng.integers(2, 9))
        centers = np.sort(rng.uniform(0.0, 1.0, k))
        r = centers[-1] - centers[0]
        delta = r / (2.0 * (k - 1))
        bound = 2.0 * sum(
            1.0 / ((2 * j - 1) ** 2 * delta**2) for j in range(1, math.ceil(k / 2) + 1)
        )
        pieces = []
        for a, b in zip(centers[:-1], centers[1:]):
            if b - a <= 0.0:
                continue
            pieces.append(np.linspace(a, b, 2002)[1:-1])
            pieces.append(np.array([0.5 * (a + b)]))
        thetas = np.concatenate(pieces)
        f_min = float(((1.0 / (thetas[:, None] - centers[None, :]) ** 2).sum(axis=1)).min())
        worst_margin = min(worst_margin, bound - f_min)
    elapsed = time.perf_counter() - start
    ok = worst_margin >= -1e-9 and elapsed < 30.0
    report(5, "equidistant-worst-case", ok, f"worst margin {worst_margin:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_06_similarity_mmd_bound():
    worst = np.inf
    for i in range(200):
        model, kernel = translate_battery(5000 + i)
        stats = kernel_stats(model, kernel)
        gamma = min(
            mmd(model, kernel, a, b)
            for a in range(model.k)
            for b in range(a + 1, model.k)
        )
        worst = min(worst, (stats.sigma2 - gamma**2 / (2.0 * model.dim)) - stats.tau)
    ok = worst >= -1e-9
    report(6, "similarity-mmd-bound", ok, f"worst margin {worst:.2e} over 200 models")
    assert ok


def test_criterion_07_kernel_price_battery():
    start = time.perf_counter()
    min_slack = np.inf
    for i in range(30):
        model, kernel = translate_battery(7000 + i)
        stats = kernel_stats(model, kernel)
        bound = thm5_bound(model.alpha, model.k, stats.sigma2, stats.eps2, stats.tau)
        prices = []
        for s in range(20):
            tree = build_kernel_mmdt(model, kernel, stats, seed=s)
            prices.append(kernel_price(model, tree).price)
        min_slack = min(min_slack, bound - float(np.mean(prices)))
    elapsed = time.perf_counter() - start
    ok = min_slack >= 0.0 and elapsed < 300.0
    report(7, "kernel-price-battery", ok, f"min slack {min_slack:.3f}, {elapsed:.1f}s")
    assert ok


def _wine_pipeline():
    raw = load_dataset(DATA_DIR / "wine.csv")
    pts = (raw.points - raw.points.mean(axis=0)) / raw.points.std(axis=0)
    data = LabeledDataset(points=pts, labels=raw.labels)
    best = None
    for seed in range(5):
        model = fit_gmm(data, 3, seed=seed)
        ll = log_likelihood(model, data)
        if best is None or ll > best[0]:
            best = (ll, model)
    model = best[1]
    cdata = CenteredDataset(pts, model.means())
    tree = build_mmdt(model, "gaussian")
    mmdt_price = empirical_price(cdata, assign_components(tree, pts), "l2sq")
    imm_price = empirical_price(cdata, assign_components(build_imm(cdata), pts), "l2sq")
    return mmdt_price, imm_price


def test_criterion_08a_wine_mmdt_price():
    """Expected red: the diagonal-covariance fit prices at ~1.13 here; the
    window is only reachable with full-covariance estimates (see module
    docstring)."""
    mmdt_price, _ = _wine_pipeline()
    ok = 1.00 <= mmdt_price <= 1.12
    report(8, "wine-mmdt-price", ok, f"l2sq price {mmdt_price:.4f}, window [1.00, 1.12]")
    assert ok, f"wine MMDT l2sq price {mmdt_price:.4f} outside [1.00, 1.12]"


def test_criterion_08b_wine_imm_gap():
    """Expected red for the same reason as 08a (the gap is 0.086)."""
    mmdt_price, imm_price = _wine_pipeline()
    gap = abs(mmdt_price - imm_price)
    ok = gap <= 0.05
    report(8, "wine-imm-gap", ok, f"MMDT {mmdt_price:.4f} vs IMM {imm_price:.4f}, gap {gap:.4f}")
    assert ok, f"wine IMM/MMDT price gap {gap:.4f} > 0.05"


def test_criterion_08c_gaussians_row():
    rng = np.random.default_rng(11)
    k, d, n = 5, 2, 10_000
    means = rng.uniform(-10.0, 10.0, size=(k, d))
    truth = MixtureModel.create(
        tuple(Component.gaussian(means[j], [1.0, 1.0]) for j in range(k)), np.full(k, 1.0 / k)
    )
    data = sample(truth, n, seed=11)
    best = None
    for seed in range(5):
        model = fit_gmm(data, k, seed=seed)
        ll = log_likelihood(model, data)
        if best is None or ll > best[0]:
            best = (ll, model)
    model = best[1]
    cdata = CenteredDataset(data.points, model.means())
    tree = build_mmdt(model, "gaussian")
    price = empirical_price(cdata, assign_components(tree, data.points), "l2sq")
    ok = price <= 1.05
    report(8, "gaussians-row", ok, f"l2sq price {price:.4f} at N={n}")
    assert ok


def test_criterion_09_timing_shape():
    sizes = [1000, 10_000, 100_000]
    rows = bench_rows(sizes, 5, 2, seed=0)
    mmdt_t = {n: s for m, n, s in rows if m == "mmdt-build"}
    imm_t = {n: s for m, n, s in rows if m == "imm-build"}
    ratio = max(mmdt_t.values()) / min(mmdt_t.values())
    monotone = imm_t[1000] < imm_t[10_000] < imm_t[100_000]
    factor = imm_t[100_000] / mmdt_t[100_000]
    ok = ratio < 2.0 and monotone and factor >= 10.0
    report(
        9,
        "timing-shape",
        ok,
        f"mmdt spread {ratio:.2f}x, imm monotone {monotone}, imm/mmdt at 1e5 = {factor:.1f}x",
    )
    assert ok


def test_criterion_10_structure_and_determinism(tmp_path):
    # 500 axis trees over gaussian and discrete batteries
    for i in range(250):
        model = gaussian_battery(i)
        tree = build_mmdt(model, "gaussian")
        check_axis_structure(tree, model.means())
        if i < 50:
            again = build_mmdt(model, "gaussian")
            assert json.dumps(tree.to_dict()) == json.dumps(again.to_dict())
    for i in range(250):
        model = random_discrete_model(4000 + i, k_max=6)
        objective = "exact-discrete" if i % 2 == 0 else "chebyshev"
        tree = build_mmdt(model, objective)
        check_axis_structure(tree, model.means())
    # 500 kernel trees
    for i in range(500):
        model, kernel = translate_battery(8000 + i)
        stats = kernel_stats(model, kernel)
        tree = build_kernel_mmdt(model, kernel, stats, seed=i)
        check_kernel_structure(tree, stats)
        if i < 50:
            again = build_kernel_mmdt(model, kernel, stats, seed=i)
            assert json.dumps(tree.to_dict()) == json.dumps(again.to_dict())

    # byte-identical artifacts across runs and across thread counts
    from mmdt.io import save_mixture

    inst = gen_thm4(3, 9)
    mix = tmp_path / "m.json"
    save_mixture(mix, inst.model)
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["build", "--mixture", str(mix), "--objective", "chebyshev", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]

    model = gaussian_battery(1)
    tree = build_mmdt(model, "gaussian")
    r1 = evaluate_tree(model, tree, 20_000, seed=5)
    r2 = evaluate_tree(model, tree, 20_000, seed=5)
    ok = r1.to_dict() == r2.to_dict()
    report(10, "structure-and-determinism", ok, "1000 builds checked, artifacts byte-identical")
    assert ok


def test_criterion_11_squared_cost_envelope(bound_battery):
    runs, _ = bound_battery
    min_slack = np.inf
    for model, _, rep in runs:
        envelope = 1.0 + BOUND_CONSTANT * model.alpha * model.k * (model.k - 1)
        min_slack = min(min_slack, envelope - rep.price_l2sq)
    ok = min_slack >= 0.0
    report(11, "squared-cost-envelope", ok, f"min slack {min_slack:.2f} over 50 models")
    assert ok
