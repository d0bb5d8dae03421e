"""Price of explainability, error rate, clustering costs, and bound values.

The price compares the l1 cost of a tree-induced partition (centers at the
coordinate-wise leaf medians) against the reference cost of assigning every
point the mean of its own component.  The report also carries the variant
that uses the assigned component mean as the leaf center, the squared-l2
price with leaf means, and the misassignment rate.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import IncompatibilityError, ValidationError
from .mixture import DISCRETE, MixtureModel, enr, sample
from .tree import AxisTree, TreeNode, assign_components, normal_upper_tail

# Constant of the price / error-rate bounds: 4 + 2*pi^2/3.
BOUND_CONSTANT = 4.0 + 2.0 * math.pi**2 / 3.0


@dataclass(frozen=True)
class EvalReport:
    """Evaluation summary for one (model, tree) pair."""

    price_l1: float
    price_l1_hat: float
    price_l2sq: float
    error_rate: float
    baseline_cost: float
    tree_cost: float
    mc_samples: int
    mc_seed: int
    confidence_radius: float
    fallback_leaves: tuple = ()
    bounds: dict | None = None

    def __post_init__(self):
        if not 0.0 <= self.error_rate <= 1.0:
            raise ValidationError("error rate outside [0, 1]")
        if self.baseline_cost < 0 or self.tree_cost < 0:
            raise ValidationError("costs must be non-negative")

    def to_dict(self) -> dict:
        return _report_dict(self)


def _report_dict(report) -> dict:
    """``format_version``, then a report's fields in order: tuples as lists,
    fields that are None left out."""
    out = {"format_version": 1}
    for key, value in asdict(report).items():
        if value is not None:
            out[key] = list(value) if isinstance(value, tuple) else value
    return out


def _ratio(num: float, den: float) -> float:
    # Zero-noise models have zero baseline cost; a zero-cost tree prices at 1.
    if den == 0.0:
        return 1.0 if num == 0.0 else math.inf
    return num / den


def weighted_median(values: np.ndarray, weights: np.ndarray) -> float:
    """Lower weighted median: smallest v with cumulative mass >= half."""
    order = np.argsort(values, kind="stable")
    v = values[order]
    cum = np.cumsum(weights[order])
    half = 0.5 * cum[-1]
    return float(v[np.searchsorted(cum, half)])


def _check_dims(model: MixtureModel, tree: AxisTree) -> None:
    if tree.dim != model.dim:
        raise IncompatibilityError(
            f"tree dimension {tree.dim} does not match model dimension {model.dim}"
        )
    if tree.n_leaves != model.k:
        raise IncompatibilityError(
            f"tree has {tree.n_leaves} leaves but the model has {model.k} components"
        )


def _support_enumeration(model: MixtureModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All (support point, joint mass, component) triples of a discrete model."""
    pts, mass, comp = [], [], []
    for k, c in enumerate(model.components):
        if c.kind != DISCRETE:
            raise ValidationError("exact evaluation requires finite-discrete components")
        pts.append(c.support)
        mass.append(model.weights[k] * c.mass)
        comp.append(np.full(c.support.shape[0], k, dtype=int))
    return np.vstack(pts), np.concatenate(mass), np.concatenate(comp)


def _leaf_centers(
    points: np.ndarray,
    weights: np.ndarray | None,
    assigned: np.ndarray,
    model: MixtureModel,
    statistic: str,
) -> tuple[np.ndarray, list[int]]:
    """Per-leaf coordinate-wise centers (weighted median or mean); empty
    leaves fall back to the assigned component mean.  Without weights every
    point counts the same: the median of m points is the one of rank
    ceil(m/2) - 1, the lower median."""
    d = points.shape[1]
    centers = np.empty((model.k, d))
    fallbacks: list[int] = []
    for leaf in range(model.k):
        mask = assigned == leaf
        if not np.any(mask):
            centers[leaf] = model.components[leaf].mean
            fallbacks.append(leaf)
            continue
        pts = points[mask]
        w = None if weights is None else weights[mask]
        if statistic == "mean" and w is None:
            centers[leaf] = pts.mean(axis=0)
        elif statistic == "mean":
            centers[leaf] = (w[:, None] * pts).sum(axis=0) / w.sum()
        elif w is None:
            rank = (pts.shape[0] + 1) // 2 - 1
            centers[leaf] = np.partition(pts, rank, axis=0)[rank]
        else:
            centers[leaf] = [weighted_median(pts[:, j], w) for j in range(d)]
    return centers, fallbacks


def exact_eval_discrete(model: MixtureModel, tree: AxisTree) -> EvalReport:
    """Exact evaluation by enumerating every (component, support point) pair.

    Leaf medians are exact coordinate-wise weighted medians of the
    leaf-conditional mass; all prices and the error rate are exact and the
    confidence radius is zero.
    """
    _check_dims(model, tree)
    pts, w, comp = _support_enumeration(model)
    assigned = assign_components(tree, pts)
    comp_means = model.means()

    medians, fb_med = _leaf_centers(pts, w, assigned, model, "median")
    leaf_means, fb_mean = _leaf_centers(pts, w, assigned, model, "mean")

    base_l1 = float(w @ np.abs(pts - comp_means[comp]).sum(axis=1))
    tree_l1 = float(w @ np.abs(pts - medians[assigned]).sum(axis=1))
    hat_l1 = float(w @ np.abs(pts - comp_means[assigned]).sum(axis=1))
    base_l2 = float(w @ ((pts - comp_means[comp]) ** 2).sum(axis=1))
    tree_l2 = float(w @ ((pts - leaf_means[assigned]) ** 2).sum(axis=1))
    err = float(w @ (assigned != comp))

    return EvalReport(
        price_l1=_ratio(tree_l1, base_l1),
        price_l1_hat=_ratio(hat_l1, base_l1),
        price_l2sq=_ratio(tree_l2, base_l2),
        error_rate=err,
        baseline_cost=base_l1,
        tree_cost=tree_l1,
        mc_samples=0,
        mc_seed=0,
        confidence_radius=0.0,
        fallback_leaves=tuple(sorted(set(fb_med) | set(fb_mean))),
    )


def mc_eval(model: MixtureModel, tree: AxisTree, n: int, seed: int) -> EvalReport:
    """Monte-Carlo evaluation on ``sample(model, n, seed)`` with sample leaf
    medians and means.

    The confidence radius is 3 * std(t_i) / sqrt(n) where t_i are the
    delta-method residuals of the per-point cost ratio terms; acceptance
    tests use it as a principled tolerance.  The squared-l2 baseline is the
    population one, sum_k p_k E|x - mu_k|^2.
    """
    if n < 100:
        raise ValidationError("mc_eval needs n >= 100")
    _check_dims(model, tree)
    data = sample(model, n, seed)
    pts, labels = data.points, data.labels
    assigned = assign_components(tree, pts)
    comp_means = model.means()

    medians, fb_med = _leaf_centers(pts, None, assigned, model, "median")
    leaf_means, fb_mean = _leaf_centers(pts, None, assigned, model, "mean")

    a = np.abs(pts - medians[assigned]).sum(axis=1)
    b = np.abs(pts - comp_means[labels]).sum(axis=1)
    hat = np.abs(pts - comp_means[assigned]).sum(axis=1)
    price = _ratio(float(a.sum()), float(b.sum()))
    if b.sum() > 0 and math.isfinite(price):
        resid = (a - price * b) / b.mean()
        radius = 3.0 * float(resid.std()) / math.sqrt(n)
    else:
        radius = 0.0

    base_l2 = float(_pooled_abs_moments(model)[1].sum())
    tree_l2 = float(np.mean(((pts - leaf_means[assigned]) ** 2).sum(axis=1)))

    return EvalReport(
        price_l1=price,
        price_l1_hat=_ratio(float(hat.sum()), float(b.sum())),
        price_l2sq=_ratio(tree_l2, base_l2),
        error_rate=float(np.mean(assigned != labels)),
        baseline_cost=float(b.mean()),
        tree_cost=float(a.mean()),
        mc_samples=n,
        mc_seed=seed,
        confidence_radius=radius,
        fallback_leaves=tuple(sorted(set(fb_med) | set(fb_mean))),
    )


def with_bounds(report: EvalReport, model: MixtureModel, beta: float | None = None) -> EvalReport:
    """Attach the price/error bound values for this model's alpha and ENR."""
    q = enr(model)
    if beta is None:
        beta = beta_estimate(model)
    bounds = {
        "thm1": thm1_bound(model.alpha, beta, model.k, q),
        "thm3": thm3_bound(model.alpha, model.k, q),
        "enr": q,
        "beta": beta,
    }
    return replace(report, bounds=bounds)


def thm1_bound(alpha: float, beta: float, k: int, q: float) -> float:
    """Price upper bound 1 + (4 + 2*pi^2/3) * alpha * beta * K(K-1) / sqrt(q)."""
    if q <= 0:
        raise ValidationError("q must be positive")
    if alpha < 1 or beta < 1 or k < 2:
        raise ValidationError("need alpha >= 1, beta >= 1, K >= 2")
    return 1.0 + BOUND_CONSTANT * alpha * beta * k * (k - 1) / math.sqrt(q)


def thm3_bound(alpha: float, k: int, q: float) -> float:
    """Error-rate upper bound (4 + 2*pi^2/3) * alpha * K(K-1) / q, clamped at 1."""
    if q <= 0:
        raise ValidationError("q must be positive")
    return min(1.0, BOUND_CONSTANT * alpha * k * (k - 1) / q)


def thm4_floor(k: int, q: float) -> float:
    """Error-rate lower bound (K-1) / (4q) of the basis-vector construction."""
    if q < k:
        raise ValidationError("construction requires q >= K")
    return (k - 1) / (4.0 * q)


def _pooled_abs_moments(model: MixtureModel) -> tuple[np.ndarray, np.ndarray]:
    """Per axis, sum_k p_k E|x_i - mu_ki| and sum_k p_k E|x_i - mu_ki|^2."""
    first = np.zeros(model.dim)
    second = np.zeros(model.dim)
    for c, p in zip(model.components, model.weights):
        m1, m2 = c.abs_moments()
        first += p * m1
        second += p * m2
    return first, second


def beta_estimate(model: MixtureModel) -> float:
    """Smallest beta with beta * E|x_i - mu_i(x)| >= sqrt(E|x_i - mu_i(x)|^2)
    on every axis.  Both component kinds have closed-form absolute moments,
    so the value is computed exactly."""
    first, second = _pooled_abs_moments(model)
    beta = 1.0
    for j in range(model.dim):
        if first[j] > 0:
            beta = max(beta, math.sqrt(second[j]) / first[j])
    return float(beta)


def _leaf_cells(tree: AxisTree) -> list[tuple[int, np.ndarray, np.ndarray]]:
    cells: list[tuple[int, np.ndarray, np.ndarray]] = []

    def walk(node: TreeNode, lo: np.ndarray, hi: np.ndarray):
        if node.is_leaf:
            cells.append((node.leaf, lo.copy(), hi.copy()))
            return
        hi_left = hi.copy()
        hi_left[node.cut.axis] = min(hi[node.cut.axis], node.cut.theta)
        lo_right = lo.copy()
        lo_right[node.cut.axis] = max(lo[node.cut.axis], node.cut.theta)
        walk(node.left, lo, hi_left)
        walk(node.right, lo_right, hi)

    d = tree.dim
    walk(tree.root, np.full(d, -np.inf), np.full(d, np.inf))
    return cells


@np.errstate(divide="ignore")  # a cell holding none of its component's mass: log1p(-1) = -inf
def exact_error_rate_gaussian(model: MixtureModel, tree: AxisTree) -> float:
    """Closed-form error rate for all-Gaussian models: the mass each
    component places outside its own leaf cell.  Per axis that mass is two
    normal tails; one minus the product of the inside masses is taken as
    -expm1(sum log1p(-outside)), which resolves rates far below 1e-16."""
    _check_dims(model, tree)
    if not model.all_gaussian():
        raise ValidationError("exact gaussian error rate requires gaussian components")
    error = 0.0
    for leaf, lo, hi in _leaf_cells(tree):
        c = model.components[leaf]
        outside = normal_upper_tail((hi - c.mean) / c.stddev) + normal_upper_tail((c.mean - lo) / c.stddev)
        error += model.weights[leaf] * -math.expm1(np.log1p(-outside).sum())
    return float(error)
