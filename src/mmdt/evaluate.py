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

from .errors import ValidationError
from .mixture import MixtureModel, enr, sample
from .tree import AxisTree, assign_components, check_fits, leaf_cells, normal_upper_tail

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


def evaluation_law(
    model: MixtureModel, n: int, seed: int
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray, int]:
    """The law a tree is priced against, as (points, weights, components,
    mc_samples).  An all-discrete model gives every (component, support
    point) pair with its joint mass and no samples; any other model gives
    ``sample(model, n, seed)``, whose points weigh 1/n each (weights None)."""
    if model.all_discrete():
        pts = np.vstack([c.support for c in model.components])
        mass = np.concatenate([p * c.mass for p, c in zip(model.weights, model.components)])
        comp = np.concatenate([np.full(c.support.shape[0], k, dtype=int) for k, c in enumerate(model.components)])
        return pts, mass, comp, 0
    if n < 100:
        raise ValidationError("Monte-Carlo evaluation needs n >= 100")
    data = sample(model, n, seed)
    return data.points, None, data.labels, n


def _leaf_centers(
    points: np.ndarray,
    weights: np.ndarray | None,
    assigned: np.ndarray,
    model: MixtureModel,
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Per-leaf coordinate-wise weighted medians and means, from one mask
    per leaf, and the empty leaves, whose centers fall back to the assigned
    component mean.  Without weights every point counts the same: the median
    of m points is the one of rank ceil(m/2) - 1, the lower median."""
    d = points.shape[1]
    medians = np.empty((model.k, d))
    means = np.empty((model.k, d))
    fallbacks: list[int] = []
    for leaf in range(model.k):
        mask = assigned == leaf
        if not np.any(mask):
            medians[leaf] = means[leaf] = model.components[leaf].mean
            fallbacks.append(leaf)
            continue
        pts = points[mask]
        if weights is None:
            rank = (pts.shape[0] + 1) // 2 - 1
            medians[leaf] = np.partition(pts, rank, axis=0)[rank]
            means[leaf] = pts.mean(axis=0)
        else:
            w = weights[mask]
            medians[leaf] = [weighted_median(pts[:, j], w) for j in range(d)]
            means[leaf] = (w[:, None] * pts).sum(axis=0) / w.sum()
    return medians, means, fallbacks


def evaluate_tree(model: MixtureModel, tree: AxisTree, n: int = 0, seed: int = 0) -> EvalReport:
    """Price ``tree`` against ``evaluation_law(model, n, seed)``.

    On an all-discrete model the leaf medians are exact coordinate-wise
    weighted medians of the leaf-conditional mass, every value is exact and
    the confidence radius is zero.  On samples the leaf medians and means
    are the samples' own, the squared-l2 baseline is the population one,
    sum_k p_k E|x - mu_k|^2, and the confidence radius is
    3 * std(t_i) / sqrt(n), with t_i the delta-method residuals of the
    per-point cost ratio terms; acceptance tests use it as a tolerance.
    """
    check_fits(tree, model.dim, model.k)
    pts, w, comp, mc_samples = evaluation_law(model, n, seed)
    assigned = assign_components(tree, pts)
    comp_means = model.means()
    medians, leaf_means, fallbacks = _leaf_centers(pts, w, assigned, model)

    # Totals over the law: joint masses, or plain sums over the samples,
    # whose means are the sums over n.
    def total(x: np.ndarray) -> float:
        return float(x.sum()) if w is None else float(w @ x)

    scale = mc_samples or 1
    own = np.abs(pts - comp_means[comp]).sum(axis=1)
    cost = np.abs(pts - medians[assigned]).sum(axis=1)
    hat = np.abs(pts - comp_means[assigned]).sum(axis=1)
    base_l1, tree_l1 = total(own), total(cost)
    price = _ratio(tree_l1, base_l1)
    radius = 0.0
    if mc_samples:
        base_l2 = float(_pooled_abs_moments(model)[1].sum())
        if base_l1 > 0 and math.isfinite(price):
            resid = (cost - price * own) / (base_l1 / n)
            radius = 3.0 * float(resid.std()) / math.sqrt(n)
    else:
        base_l2 = total(((pts - comp_means[comp]) ** 2).sum(axis=1))

    return EvalReport(
        price_l1=price,
        price_l1_hat=_ratio(total(hat), base_l1),
        price_l2sq=_ratio(total(((pts - leaf_means[assigned]) ** 2).sum(axis=1)) / scale, base_l2),
        error_rate=total(assigned != comp) / scale,
        baseline_cost=base_l1 / scale,
        tree_cost=tree_l1 / scale,
        mc_samples=mc_samples,
        mc_seed=seed if mc_samples else 0,
        confidence_radius=radius,
        fallback_leaves=tuple(fallbacks),
    )


def with_bounds(report: EvalReport, model: MixtureModel) -> EvalReport:
    """Attach the price/error bound values for this model's alpha, ENR and
    estimated beta."""
    q = enr(model)
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


@np.errstate(divide="ignore")  # a cell holding none of its component's mass: log1p(-1) = -inf
def exact_error_rate_gaussian(model: MixtureModel, tree: AxisTree) -> float:
    """Closed-form error rate for all-Gaussian models: the mass each
    component places outside its own leaf cell.  Per axis that mass is two
    normal tails; one minus the product of the inside masses is taken as
    -expm1(sum log1p(-outside)), which resolves rates far below 1e-16."""
    check_fits(tree, model.dim, model.k)
    if not model.all_gaussian():
        raise ValidationError("exact gaussian error rate requires gaussian components")
    error = 0.0
    for leaf, lo, hi in leaf_cells(tree):
        c = model.components[leaf]
        outside = normal_upper_tail((hi - c.mean) / c.stddev) + normal_upper_tail((c.mean - lo) / c.stddev)
        error += model.weights[leaf] * -math.expm1(np.log1p(-outside).sum())
    return float(error)
