"""Generators and exact evaluators for hard instances used as test oracles.

Three constructions are provided.  Each component is a star: its center
(when that carries mass) and the 2d points one unit away along each axis,
with exact rational masses converted to floats only at the end:

* ``thm2-logk`` -- K clusters around well-spread sign-vector centers in
  dimension K^3, each cluster putting mass on the center (M copies) and on
  unit deviations along every axis;
* ``thm4-basis`` -- K components at the standard basis vectors of R^K with
  unit deviations of probability 1/(2q) per axis and sign, at most one axis
  deviating per draw;
* ``b3-constprice`` -- two components at +-0.5 * ones(d), each deviating by
  exactly one unit on exactly one axis, whose optimal tree keeps a constant
  price while its error rate vanishes as d grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator

import numpy as np

from .errors import ValidationError
from .mixture import Component, MixtureModel
from .tree import AxisCut, AxisTree, TreeNode, _midpoint_candidates


@dataclass(frozen=True)
class AdversarialInstance:
    """A generated model plus its construction id, parameters, and analytic
    target values (matched against exact computation in the tests)."""

    model: MixtureModel
    construction: str
    params: dict
    targets: dict

    def to_dict(self) -> dict:
        return {
            "format_version": 1,
            "construction": self.construction,
            "params": dict(self.params),
            "targets": dict(self.targets),
        }


def _star(center: np.ndarray, center_mass: Fraction, step_mass: Fraction) -> Component:
    """Discrete component on ``center`` (listed only when ``center_mass`` > 0),
    then ``center + e_i`` and ``center - e_i`` for each axis i in order, each
    with ``step_mass``."""
    d = center.shape[0]
    masses = ([center_mass] if center_mass > 0 else []) + [step_mass] * (2 * d)
    total = sum(masses)
    if total != 1:
        raise ValidationError(f"masses sum to {total}, expected 1")
    eye = np.eye(d)
    steps = np.stack([center + eye, center - eye], axis=1).reshape(2 * d, d)
    support = np.vstack([center, steps]) if center_mass > 0 else steps
    return Component.discrete(support, [float(m) for m in masses])


def _agreement_count(centers: np.ndarray, axes: tuple[int, ...]) -> int:
    _, counts = np.unique(centers[:, list(axes)], axis=0, return_counts=True)
    return int(counts.max())


def gen_thm2(k: int, m: int, seed: int = 0, max_retries: int = 1000) -> AdversarialInstance:
    """Log-K lower-bound instance: d = K^3, centers rejection-sampled from
    {-1, +1}^d until every pair differs on at least d/4 axes and small axis
    subsets keep enough agreeing centers.

    Cluster k puts m copies of its center plus center +- e_i for every axis,
    all with mass 1/(m + 2d) inside the component; mixing weights are equal.
    """
    if k < 2:
        raise ValidationError("need at least two components")
    if m < 0:
        raise ValidationError("m must be non-negative")
    if max_retries < 1:
        raise ValidationError("max_retries must be >= 1")
    d = k**3
    rng = np.random.default_rng(seed)
    eps = math.log(k) / math.sqrt(k)

    # Subset sizes actually verified for the agreement property; capped at 3
    # and at a subset budget since counts explode combinatorially.
    subset_budget = 250_000
    l_candidates = [l for l in (1, 2, 3) if l <= d and math.comb(d, l) <= subset_budget]

    centers = None
    verified_l: list[int] = []
    failure = ""
    for _ in range(max_retries):
        cand = rng.choice([-1.0, 1.0], size=(k, d))
        hamming_ok = True
        for a in range(k):
            for b in range(a + 1, k):
                if np.sum(cand[a] != cand[b]) < d / 4:
                    hamming_ok = False
                    break
            if not hamming_ok:
                break
        if not hamming_ok:
            failure = "property 1 (pairwise distinct on >= d/4 axes) failed"
            continue
        verified_l = []
        agree_ok = True
        for l in l_candidates:
            need = k * (2.0**-l - eps)
            if need <= 1.0:
                verified_l.append(l)
                continue
            for axes in combinations(range(d), l):
                if _agreement_count(cand, axes) < need:
                    agree_ok = False
                    failure = f"property 2 (agreement on {l} axes) failed"
                    break
            if not agree_ok:
                break
            verified_l.append(l)
        if agree_ok:
            centers = cand
            break
    if centers is None:
        raise ValidationError(f"retries exhausted generating thm2 instance: {failure}")

    comps = [_star(c, Fraction(m, m + 2 * d), Fraction(1, m + 2 * d)) for c in centers]
    model = MixtureModel.create(comps, np.full(k, 1.0 / k), alpha=1.0)

    # Per-axis variance is 2/(m+2d); the closest pair differs by 2 on some
    # axis, so the exact explainability-to-noise ratio is 4/(2/(m+2d)).
    enr_exact = 2.0 * (2 * d + m)
    targets = {
        "enr": enr_exact,
        "baseline_l1": float(Fraction(2 * d, m + 2 * d)),
        "beta": math.sqrt((2 * d + m) / 2.0),
    }
    params = {"K": k, "M": m, "d": d, "seed": seed, "verified_l": verified_l}
    return AdversarialInstance(model=model, construction="thm2-logk", params=params, targets=targets)


def gen_thm4(k: int, q: int) -> AdversarialInstance:
    """Error-floor instance: d = K, means at the standard basis vectors,
    per-axis deviations of +-1 with probability eps = 1/(2q) each, and a
    joint law where at most one axis deviates (needs q >= K)."""
    if k < 2:
        raise ValidationError("need at least two components")
    if q < k:
        raise ValidationError("construction requires q >= K")
    eps = Fraction(1, 2 * q)
    comps = [_star(mean, 1 - 2 * k * eps, eps) for mean in np.eye(k)]
    model = MixtureModel.create(comps, np.full(k, 1.0 / k), alpha=1.0)

    # The ordered-separation tree's exact error: component c can cross at
    # each of the first c cuts plus its own separating cut, each with
    # probability eps and the events disjoint.
    canonical_error = float(eps) * (k - 1) * (k + 2) / (2 * k)
    targets = {
        "enr": float(q),
        "floor": (k - 1) / (4.0 * q),
        "canonical_error": canonical_error,
        "axis_variance": float(2 * eps),
    }
    return AdversarialInstance(
        model=model, construction="thm4-basis", params={"K": k, "q": q}, targets=targets
    )


def thm4_canonical_tree(instance: AdversarialInstance) -> AxisTree:
    """Caterpillar tree separating component 0 first, then 1, and so on,
    each with the cut x_{k+1} <= 0.5."""
    if instance.construction != "thm4-basis":
        raise ValidationError("canonical tree is defined for thm4-basis instances")
    k = instance.params["K"]

    def grow(c: int) -> TreeNode:
        if c == k - 1:
            return TreeNode(leaf=c)
        return TreeNode(cut=AxisCut(axis=c, theta=0.5), left=grow(c + 1), right=TreeNode(leaf=c))

    return AxisTree(
        root=grow(0),
        dim=k,
        n_leaves=k,
        model_fingerprint=instance.model.fingerprint(),
    )


def gen_b3(d: int) -> AdversarialInstance:
    """Constant-price instance: two components at +-0.5 * ones(d), each a
    unit deviation on exactly one axis with probability 1/(2d) per sign-axis
    event.  The canonical root cut x_1 <= 0 has price 1.5 - 1/d and error
    rate 1/(2d)."""
    if d < 2:
        raise ValidationError("need d >= 2")
    eps = Fraction(1, 2 * d)
    comps = [_star(np.full(d, sign / 2), Fraction(0), eps) for sign in (1, -1)]
    model = MixtureModel.create(comps, np.array([0.5, 0.5]), alpha=1.0)
    targets = {
        "price": 1.5 - 1.0 / d,
        "baseline_l1": 1.0,
        "error_rate": float(eps),
        "leaf_median_abs": 0.5,
    }
    return AdversarialInstance(
        model=model, construction="b3-constprice", params={"d": d}, targets=targets
    )


def b3_canonical_tree(instance: AdversarialInstance) -> AxisTree:
    """Root cut x_1 <= 0; the positive component sits in the right leaf."""
    if instance.construction != "b3-constprice":
        raise ValidationError("canonical tree is defined for b3-constprice instances")
    d = instance.params["d"]
    root = TreeNode(cut=AxisCut(axis=0, theta=0.0), left=TreeNode(leaf=1), right=TreeNode(leaf=0))
    return AxisTree(root=root, dim=d, n_leaves=2, model_fingerprint=instance.model.fingerprint())


def enumerate_valid_trees(
    model: MixtureModel, max_support: int = 200, max_k: int = 3
) -> Iterator[AxisTree]:
    """Enumerate every K-leaf tree with one component mean per leaf.

    Thresholds are midpoints between consecutive distinct support
    projections lying strictly between the projected means at each node, so
    the stream covers one representative per equivalence class of the exact
    objective.  Deterministic order: axis ascending, threshold ascending,
    left subtree varying fastest.
    """
    if not model.all_discrete():
        raise ValidationError("tree enumeration requires finite-discrete components")
    if model.k > max_k:
        raise ValidationError(f"instance too large: K={model.k} > {max_k}")
    n_support = sum(c.support.shape[0] for c in model.components)
    if n_support > max_support:
        raise ValidationError(f"instance too large: {n_support} support points > {max_support}")
    means = model.means()
    fingerprint = model.fingerprint()

    def grow(comps: list[int]) -> Iterator[TreeNode]:
        if len(comps) == 1:
            yield TreeNode(leaf=comps[0])
            return
        for axis in range(model.dim):
            for theta in _midpoint_candidates(model, comps, axis).tolist():
                left = [k for k in comps if means[k, axis] <= theta]
                right = [k for k in comps if means[k, axis] > theta]
                for left_node in grow(left):
                    for right_node in grow(right):
                        yield TreeNode(
                            cut=AxisCut(axis=axis, theta=theta), left=left_node, right=right_node
                        )

    for root in grow(list(range(model.k))):
        yield AxisTree(
            root=root, dim=model.dim, n_leaves=model.k, model_fingerprint=fingerprint
        )
