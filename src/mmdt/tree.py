"""Threshold trees over mixture components, and the axis-aligned builder.

Axis and kernel trees share the node type, the tree base, the router and
the DOT export defined here; they differ only in their cuts.

The builder repeatedly picks the axis with the largest noise-normalized mean
spread among the components remaining at a node, then places a one-sided cut
``x_i <= theta`` at the threshold minimizing a separation-probability
objective.  Three objectives are supported:

* ``exact-discrete`` -- the exact separation probability over the support
  points (all components at the node must be finite-discrete);
* ``chebyshev`` -- sum of per-component Chebyshev tail bounds
  ``min(1, sigma_i^2 / (mu_i - theta)^2)``, each clamped at one since it
  bounds a probability;
* ``gaussian`` -- sum of exact Gaussian upper tails at the normalized
  distance from each component mean to the threshold.

The exact-discrete objective is piecewise constant.  It is scored at the
midpoint of every piece by one sweep per component: sort the support
projections once, then read prefix and suffix sums of their masses at each
threshold's ``searchsorted`` position; O(S log S) time, O(S) memory.

The two continuous objectives are minimized exactly.  Between consecutive
projected means every Gaussian tail term is convex, and so is every Chebyshev
term once the gap is also split at its clamp breakpoints ``mu_j +- sigma``.
On each such piece the minimum is an end of the piece or the root of the
objective's slope; the roots of all pieces of a node are found by one
bisection on the slope's sign, vectorized over the pieces.  For every
objective, candidates within a relative ``1e-12`` of the best are tied and
the lowest threshold wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy.special import erfc

from .errors import IncompatibilityError, ValidationError
from .mixture import DISCRETE, GAUSSIAN, MixtureModel

OBJECTIVES = ("exact-discrete", "chebyshev", "gaussian")

# Slope bisection halves every bracket per step: 64 steps leave 5e-20 of a
# piece, below one ulp of its ends unless they straddle zero.  It stops
# earlier once no bracket has a float strictly inside.
_BISECT_MAX_ITERS = 64

# Mathematically tied scores and objective values (symmetric configurations)
# differ by rounding noise that need not survive affine rescaling; candidates
# this close are treated as tied and resolved by the deterministic rule.
_TIE_REL = 1e-12


def normal_upper_tail(t):
    """P(Z > t) for standard normal Z, via the complementary error function."""
    return 0.5 * erfc(np.asarray(t, dtype=float) / math.sqrt(2.0))


@dataclass(frozen=True)
class AxisCut:
    """One-sided threshold cut: x_axis <= theta goes left."""

    axis: int
    theta: float

    def __post_init__(self):
        if not math.isfinite(self.theta):
            raise ValidationError("threshold must be finite")

    def goes_left(self, column: np.ndarray) -> np.ndarray:
        return column <= self.theta

    def to_dict(self) -> dict:
        return {"axis": int(self.axis), "theta": float(self.theta)}

    def label(self) -> str:
        return f"x{self.axis + 1} <= {self.theta:.6g}"


@dataclass(frozen=True)
class TreeNode:
    """Internal node (cut plus two children) or leaf (component index).

    A cut is an ``AxisCut`` or a ``kernel.KernelCut``; both offer ``axis``,
    ``goes_left(column)`` over the points' values on that axis, ``to_dict()``
    and ``label()``.
    """

    cut: AxisCut | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    leaf: int | None = None

    @property
    def is_leaf(self) -> bool:
        return self.leaf is not None

    def to_dict(self) -> dict:
        if self.is_leaf:
            return {"leaf": int(self.leaf)}
        return {**self.cut.to_dict(), "left": self.left.to_dict(), "right": self.right.to_dict()}

    @staticmethod
    def from_dict(d: dict, dim: int, read_cut) -> "TreeNode":
        """Parse a node; read_cut(d, axis) makes the cut once its axis is
        known to lie in 0..dim-1."""
        if "leaf" in d:
            return TreeNode(leaf=int(d["leaf"]))
        axis = int(d["axis"])
        if not 0 <= axis < dim:
            raise ValidationError(f"cut axis {axis} outside 0..{dim - 1}")
        return TreeNode(
            cut=read_cut(d, axis),
            left=TreeNode.from_dict(d["left"], dim, read_cut),
            right=TreeNode.from_dict(d["right"], dim, read_cut),
        )


@dataclass(frozen=True)
class BuildOptions:
    """Options for build_mmdt.

    Ties in axis or threshold choice are broken deterministically (lowest
    axis index, then lowest theta), so a build needs no seed.
    """

    objective: str = "chebyshev"

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValidationError(f"objective must be one of {OBJECTIVES}, got {self.objective!r}")

    def to_dict(self) -> dict:
        return {"objective": self.objective}

    @staticmethod
    def from_dict(d: dict) -> "BuildOptions":
        # Trees written by older versions also carry "seed" and
        # "intervals_per_gap"; neither affects the tree, so both are ignored.
        return BuildOptions(objective=d["objective"])


@dataclass(frozen=True)
class ThresholdTree:
    """Binary tree with K leaves, one per component index.

    A subclass sets ``kind``, ``dot_name`` and the JSON key order
    ``json_keys``, and defines ``header()`` (its JSON header fields),
    ``header_from_dict(d, dim)`` (its constructor arguments) and
    ``read_cut(d, axis, header)`` (a cut from its JSON node).
    """

    root: TreeNode
    dim: int
    n_leaves: int
    model_fingerprint: str = ""

    kind: ClassVar[str]
    dot_name: ClassVar[str]
    json_keys: ClassVar[tuple[str, ...]]

    def leaves(self) -> list[int]:
        def walk(node: TreeNode) -> list[int]:
            return [node.leaf] if node.is_leaf else walk(node.left) + walk(node.right)

        return walk(self.root)

    def to_dict(self) -> dict:
        fields = {
            "format_version": 1,
            "kind": self.kind,
            "dim": int(self.dim),
            "n_leaves": int(self.n_leaves),
            "model_fingerprint": self.model_fingerprint,
            "root": self.root.to_dict(),
            **self.header(),
        }
        return {key: fields[key] for key in self.json_keys if key in fields}

    @classmethod
    def from_dict(cls, d: dict) -> "ThresholdTree":
        """Parse a tree, raising ValidationError unless every cut axis lies
        in 0..dim-1 and the leaves are a bijection onto 0..n_leaves-1."""
        dim = int(d["dim"])
        header = cls.header_from_dict(d, dim)
        tree = cls(
            root=TreeNode.from_dict(d["root"], dim, lambda node, axis: cls.read_cut(node, axis, header)),
            dim=dim,
            n_leaves=int(d["n_leaves"]),
            model_fingerprint=d.get("model_fingerprint", ""),
            **header,
        )
        leaves = sorted(tree.leaves())
        if leaves != list(range(tree.n_leaves)):
            raise ValidationError(f"leaves {leaves} are not a bijection onto 0..{tree.n_leaves - 1}")
        return tree


@dataclass(frozen=True)
class AxisTree(ThresholdTree):
    """Tree of axis-aligned cuts ``x_i <= theta``."""

    options: BuildOptions | None = None

    kind = "axis"
    dot_name = "tree"
    json_keys = ("format_version", "kind", "dim", "n_leaves", "model_fingerprint", "root", "options")

    def header(self) -> dict:
        return {} if self.options is None else {"options": self.options.to_dict()}

    @classmethod
    def header_from_dict(cls, d: dict, dim: int) -> dict:
        return {"options": BuildOptions.from_dict(d["options"]) if "options" in d else None}

    @classmethod
    def read_cut(cls, d: dict, axis: int, header: dict) -> AxisCut:
        return AxisCut(axis=axis, theta=float(d["theta"]))


def predict(tree: ThresholdTree, x) -> int:
    """Route one point of shape (dim,) through the tree."""
    x = np.asarray(x, dtype=float)
    if x.shape != (tree.dim,):
        raise IncompatibilityError(f"point has shape {x.shape}, tree expects ({tree.dim},)")
    return int(assign_components(tree, x[None, :])[0])


def assign_components(tree: ThresholdTree, points: np.ndarray) -> np.ndarray:
    """Leaf of every row of an (n, d) array: at each node the rows whose
    cut ``goes_left`` move to the left child, the rest to the right."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != tree.dim:
        raise IncompatibilityError(f"points have shape {points.shape}, tree expects (*, {tree.dim})")
    out = np.empty(points.shape[0], dtype=int)
    stack = [(tree.root, np.arange(points.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        if node.is_leaf:
            out[idx] = node.leaf
            continue
        go_left = node.cut.goes_left(points[idx, node.cut.axis])
        stack.append((node.left, idx[go_left]))
        stack.append((node.right, idx[~go_left]))
    return out


def select_axis(model: MixtureModel, node_components) -> tuple[int, float]:
    """Axis maximizing (max - min projected mean) / sigma; ties pick the
    lowest axis.  Returns the axis and the winning (unnormalized) spread."""
    comps = list(node_components)
    if len(comps) < 2:
        raise ValidationError("need at least two components at the node")
    proj = model.means()[comps]
    spread = proj.max(axis=0) - proj.min(axis=0)
    scores = spread / model.sigma
    best = float(scores.max())
    axis = int(np.argmax(scores >= best * (1.0 - _TIE_REL)))
    return axis, float(spread[axis])


def _node_weights(model: MixtureModel, comps: list[int]) -> np.ndarray:
    w = model.weights[comps]
    return w / w.sum()


def _check_theta_off_means(proj_means: np.ndarray, theta) -> None:
    if np.any(np.asarray(theta)[..., None] == proj_means):
        raise ValidationError("threshold on a mean")


def chebyshev_objective(model: MixtureModel, node_components, axis: int, theta):
    """Clamped Chebyshev bound on the probability that a point from the
    node-conditional mixture is separated from its own mean by theta."""
    comps = list(node_components)
    proj = model.means()[comps, axis]
    theta_arr = np.asarray(theta, dtype=float)
    _check_theta_off_means(proj, theta_arr)
    w = _node_weights(model, comps)
    sigma2 = model.sigma[axis] ** 2
    with np.errstate(divide="ignore", over="ignore"):
        terms = np.minimum(1.0, sigma2 / (proj - theta_arr[..., None]) ** 2)
    return terms @ w if theta_arr.ndim else float(terms @ w)


def gaussian_objective(model: MixtureModel, node_components, axis: int, theta):
    """Exact Gaussian tail version of the separation bound; requires all node
    components to be diagonal Gaussians."""
    comps = list(node_components)
    for k in comps:
        if model.components[k].kind != GAUSSIAN:
            raise ValidationError("gaussian objective requires gaussian components")
    proj = model.means()[comps, axis]
    theta_arr = np.asarray(theta, dtype=float)
    _check_theta_off_means(proj, theta_arr)
    w = _node_weights(model, comps)
    stds = np.array([model.components[k].stddev[axis] for k in comps])
    tails = normal_upper_tail(np.abs(proj - theta_arr[..., None]) / stds)
    return tails @ w if theta_arr.ndim else float(tails @ w)


def exact_discrete_objective(model: MixtureModel, node_components, axis: int, theta):
    """Exact separation probability; requires finite-discrete components.
    A component's separated mass is its mass on the side of theta away from
    its mean, read off the prefix and suffix sums of its sorted masses."""
    comps = list(node_components)
    for k in comps:
        if model.components[k].kind != DISCRETE:
            raise ValidationError("exact-discrete objective requires discrete components")
    proj = model.means()[comps, axis]
    theta_arr = np.asarray(theta, dtype=float)
    _check_theta_off_means(proj, theta_arr)
    w = _node_weights(model, comps)
    terms = []
    for k, mean in zip(comps, proj):
        comp = model.components[k]
        order = np.argsort(comp.support[:, axis], kind="stable")
        mass = comp.mass[order]
        at_or_below = np.concatenate([[0.0], np.cumsum(mass)])
        above = np.concatenate([np.cumsum(mass[::-1])[::-1], [0.0]])
        n_below = np.searchsorted(comp.support[order, axis], theta_arr, side="right")
        terms.append(np.where(mean <= theta_arr, above[n_below], at_or_below[n_below]))
    total = np.stack(terms, axis=-1) @ w
    return total if theta_arr.ndim else float(total)


def _midpoint_candidates(model: MixtureModel, comps: list[int], axis: int) -> np.ndarray:
    """Ascending midpoints of consecutive distinct support and mean projections
    within the span of the means: one per piece of the exact objective."""
    proj = model.means()[comps, axis]
    values = [proj] + [model.components[k].support[:, axis] for k in comps]
    breaks = np.unique(np.concatenate(values))
    breaks = breaks[(breaks >= proj.min()) & (breaks <= proj.max())]
    return 0.5 * (breaks[:-1] + breaks[1:])


def _lowest_tied(thetas: np.ndarray, vals: np.ndarray) -> tuple[float, float]:
    """The lowest theta among values within ``_TIE_REL`` of the minimum."""
    best_val = float(vals.min())
    tied = vals <= best_val + _TIE_REL * max(1.0, abs(best_val))
    best = int(np.flatnonzero(tied)[np.argmin(thetas[tied])])
    return float(thetas[best]), float(vals[best])


def minimize_threshold(
    model: MixtureModel,
    node_components,
    axis: int,
    objective: str,
) -> tuple[float, float]:
    """Minimize the chosen objective over the open interval between the
    smallest and largest projected mean.

    The exact-discrete objective is piecewise constant, so candidate
    thresholds are midpoints between consecutive distinct support (and mean)
    projections, all scored in one sweep of ``exact_discrete_objective``
    (per component: one sort, then prefix sums), O(S log S) per node.

    The continuous objectives are convex on every piece of the interval
    between consecutive distinct projected means, further split (chebyshev)
    at the clamp breakpoints ``mu_j +- sigma``.  A piece end on a mean is
    pulled into the open gap by ``1e-12`` of the gap (at least one ulp).  Each
    piece contributes its two ends and, when its one-sided slopes change sign
    and its tangent-line lower bound does not already exceed the best end
    value, the root of its slope, found by one bisection vectorized over all
    such pieces.

    For every objective, candidates within ``_TIE_REL`` of the best value are
    tied and the lowest theta wins.
    """
    comps = list(node_components)
    proj = model.means()[comps, axis]
    m_lo, m_hi = float(proj.min()), float(proj.max())
    if not m_lo < m_hi:
        raise ValidationError("need at least two distinct projected means on the axis")

    if objective == "exact-discrete":
        candidates = _midpoint_candidates(model, comps, axis)
        return _lowest_tied(candidates, exact_discrete_objective(model, comps, axis, candidates))

    w = _node_weights(model, comps)
    distinct = np.unique(proj)
    breaks = distinct
    if objective == "chebyshev":
        sigma = float(model.sigma[axis])
        clamp = np.concatenate([distinct - sigma, distinct + sigma])
        breaks = np.union1d(distinct, clamp[(clamp > m_lo) & (clamp < m_hi)])
    start, stop = breaks[:-1], breaks[1:]
    gap = np.searchsorted(distinct, start, side="right")
    span = distinct[gap] - distinct[gap - 1]
    pull = span * 1e-12
    lo = np.where(np.isin(start, distinct), np.maximum(start + pull, np.nextafter(start, stop)), start)
    hi = np.where(np.isin(stop, distinct), np.minimum(stop - pull, np.nextafter(stop, start)), stop)
    # A piece no wider than the pull-in (a breakpoint hugging a mean, or
    # means one ulp apart) holds no threshold off the means.
    lo, hi = lo[lo <= hi], hi[lo <= hi]
    if lo.size == 0:
        raise ValidationError("no threshold strictly between the projected means")
    # Which side of each mean a piece lies on, and (chebyshev) which terms
    # are clamped, is fixed per piece by its midpoint, so the slopes at its
    # ends are one-sided.
    mid = 0.5 * (lo + hi)

    if objective == "chebyshev":
        coef = np.where(np.abs(mid[:, None] - proj) > sigma, w, 0.0)
        log_scale = math.log(2.0 / sigma)

        def values(ts):
            return np.minimum(1.0, sigma**2 / (proj - ts[:, None]) ** 2) @ w

        def slope(ts, rows=slice(None)):
            # f' = -(2 / sigma) * sum_j coef_j / u_j^3, u_j = (t - mu_j) / sigma,
            # returned as (mantissa, log scale) like the gaussian slope
            u = (ts[:, None] - proj) / sigma
            return -(coef[rows] / u**3).sum(axis=1), log_scale
    else:
        stds = np.array([model.components[k].stddev[axis] for k in comps])
        log_ws = np.log(w / stds) - 0.5 * math.log(2.0 * math.pi)
        sign = np.where(proj > mid[:, None], 1.0, -1.0)

        def values(ts):
            return normal_upper_tail(np.abs(proj - ts[:, None]) / stds) @ w

        def slope(ts, rows=slice(None)):
            # f' = sum_j sign_j * w_j / s_j * phi(z_j) = mantissa * exp(top):
            # summed in the log domain, shifted by each row's largest term, so
            # the sign survives where every term underflows (gaps over ~77 s_j).
            log_terms = log_ws - 0.5 * ((ts[:, None] - proj) / stds) ** 2
            top = log_terms.max(axis=1)
            return (sign[rows] * np.exp(log_terms - top[:, None])).sum(axis=1), top

    f_lo, f_hi = values(lo), values(hi)
    (s_lo, e_lo), (s_hi, e_hi) = slope(lo), slope(hi)
    best_end = float(min(f_lo.min(), f_hi.min()))
    tol = _TIE_REL * max(1.0, abs(best_end))
    # Only a piece whose end slopes have opposite signs holds an interior
    # minimum.  Its end tangents meet below that minimum; the bound prunes
    # only where both slopes are representable (neither underflowed).
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        g_lo, g_hi = s_lo * np.exp(e_lo), s_hi * np.exp(e_hi)
        sloped = (g_lo < 0) & (g_hi > 0)
        reach = np.where(sloped, (f_lo - f_hi + g_hi * (hi - lo)) / (g_hi - g_lo), 0.0)
        bound = f_lo + g_lo * np.clip(reach, 0.0, hi - lo)
    rows = np.flatnonzero((s_lo < 0) & (s_hi > 0) & ~(sloped & (bound > best_end + tol)))
    a, b = lo[rows], hi[rows]
    for _ in range(_BISECT_MAX_ITERS):
        probe = 0.5 * (a + b)
        inside = (probe > a) & (probe < b)
        if not inside.any():
            break
        up = slope(probe, rows)[0] > 0
        b = np.where(inside & up, probe, b)
        a = np.where(inside & ~up, probe, a)

    return _lowest_tied(np.concatenate([lo, hi, a]), np.concatenate([f_lo, f_hi, values(a)]))


def _check_objective_compatible(model: MixtureModel, objective: str) -> None:
    if objective == "exact-discrete" and not model.all_discrete():
        raise ValidationError("exact-discrete objective requires discrete components")
    if objective == "gaussian" and not model.all_gaussian():
        raise ValidationError("gaussian objective requires gaussian components")


def build_mmdt(model: MixtureModel, options: BuildOptions | None = None) -> AxisTree:
    """Build the K-leaf tree: per node, select the best axis, minimize the
    threshold objective, and partition the remaining components by mean side.
    Deterministic given (model, options)."""
    options = options or BuildOptions()
    if model.k < 2:
        raise ValidationError("need at least two components")
    _check_objective_compatible(model, options.objective)
    means = model.means()

    def grow(comps: list[int]) -> TreeNode:
        if len(comps) == 1:
            return TreeNode(leaf=comps[0])
        axis, _ = select_axis(model, comps)
        theta, _ = minimize_threshold(model, comps, axis, options.objective)
        left = [k for k in comps if means[k, axis] <= theta]
        right = [k for k in comps if means[k, axis] > theta]
        assert left and right, "threshold failed to separate component means"
        return TreeNode(cut=AxisCut(axis=axis, theta=theta), left=grow(left), right=grow(right))

    root = grow(list(range(model.k)))
    return AxisTree(
        root=root,
        dim=model.dim,
        n_leaves=model.k,
        model_fingerprint=model.fingerprint(),
        options=options,
    )


def check_structure(tree: AxisTree, means: np.ndarray) -> None:
    """Assert the structural invariants against component means (K x d):
    exactly K leaves mapped bijectively onto components, every leaf cell
    containing its component mean, every internal split nonempty."""
    k, d = means.shape
    if tree.dim != d:
        raise IncompatibilityError("tree dimension does not match means")
    seen: list[int] = []

    def walk(node: TreeNode, lo: np.ndarray, hi: np.ndarray) -> list[int]:
        if node.is_leaf:
            if not (k > node.leaf >= 0):
                raise ValidationError(f"leaf index {node.leaf} out of range")
            m = means[node.leaf]
            if not (np.all(m > lo) and np.all(m <= hi)):
                raise ValidationError(f"leaf cell does not contain mean of component {node.leaf}")
            seen.append(node.leaf)
            return [node.leaf]
        cut = node.cut
        if not lo[cut.axis] < cut.theta < hi[cut.axis]:
            raise ValidationError("cut threshold outside the cell of its node")
        hi_left = hi.copy()
        hi_left[cut.axis] = cut.theta
        lo_right = lo.copy()
        lo_right[cut.axis] = cut.theta
        got_left = walk(node.left, lo, hi_left)
        got_right = walk(node.right, lo_right, hi)
        if not got_left or not got_right:
            raise ValidationError("internal node with an empty side")
        return got_left + got_right

    walk(tree.root, np.full(d, -np.inf), np.full(d, np.inf))
    if sorted(seen) != list(range(k)):
        raise ValidationError(f"leaves {sorted(seen)} are not a bijection onto components")


def export_dot(tree: ThresholdTree) -> str:
    """Graphviz DOT text: an internal node is labelled by its cut, and its
    left child hangs on the yes edge."""
    lines = [f"digraph {tree.dot_name} {{", "  node [shape=box];"]
    counter = [0]

    def walk(node: TreeNode) -> int:
        idx = counter[0]
        counter[0] += 1
        if node.is_leaf:
            lines.append(f'  n{idx} [label="component {node.leaf}", shape=ellipse];')
            return idx
        lines.append(f'  n{idx} [label="{node.cut.label()}"];')
        l = walk(node.left)
        r = walk(node.right)
        lines.append(f'  n{idx} -> n{l} [label="yes"];')
        lines.append(f'  n{idx} -> n{r} [label="no"];')
        return idx

    walk(tree.root)
    lines.append("}")
    return "\n".join(lines) + "\n"
