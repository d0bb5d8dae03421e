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
objective's slope.  The tree grows one level at a time, with one vectorized
bisection per tree level over all nodes' pieces, on the slope's sign.  A
level's slope terms are one flat list, piece by piece, and each piece's terms
are added in component order (``np.bincount``), so a node's threshold does
not depend on the other nodes of its level.  For every objective,
candidates within a relative ``1e-12`` of the best are tied and the lowest
threshold wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np

from .errors import IncompatibilityError, ValidationError
from .mixture import DISCRETE, GAUSSIAN, MixtureModel

# Each objective and the component kind it requires (None: any kind).
OBJECTIVES = {"exact-discrete": DISCRETE, "chebyshev": None, "gaussian": GAUSSIAN}

# Slope bisection halves every bracket per step: 64 steps leave 5e-20 of a
# piece, below one ulp of its ends unless they straddle zero.  It stops
# earlier once no bracket has a float strictly inside.
_BISECT_MAX_ITERS = 64

# Mathematically tied scores and objective values (symmetric configurations)
# differ by rounding noise that need not survive affine rescaling; candidates
# this close are treated as tied and resolved by the deterministic rule.
_TIE_REL = 1e-12

_ERFC = np.frompyfunc(math.erfc, 1, 1)  # numpy has no erfc


def normal_upper_tail(t):
    """P(Z > t) for standard normal Z, elementwise: 0.5 * erfc(t / sqrt 2)."""
    return 0.5 * np.asarray(_ERFC(np.asarray(t, dtype=float) / math.sqrt(2.0)), dtype=float)


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
    """Tree of axis-aligned cuts ``x_i <= theta``, with the objective that
    built it (None for trees made by other means)."""

    objective: str | None = None

    kind = "axis"
    dot_name = "tree"
    json_keys = ("format_version", "kind", "dim", "n_leaves", "model_fingerprint", "root", "options")

    def __post_init__(self):
        if self.objective is not None:
            _check_objective(self.objective, ())

    def header(self) -> dict:
        return {} if self.objective is None else {"options": {"objective": self.objective}}

    @classmethod
    def header_from_dict(cls, d: dict, dim: int) -> dict:
        # Trees written by older versions also carry "seed" and
        # "intervals_per_gap" in "options"; neither affects the tree.
        return {"objective": d["options"]["objective"] if "options" in d else None}

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


def _check_objective(objective: str, components) -> None:
    """The only check of an objective name and of the component kinds it needs."""
    if not isinstance(objective, str) or objective not in OBJECTIVES:
        raise ValidationError(f"objective must be one of {tuple(OBJECTIVES)}, got {objective!r}")
    kind = OBJECTIVES[objective]
    if kind is not None and any(c.kind != kind for c in components):
        name = {DISCRETE: "discrete", GAUSSIAN: "gaussian"}[kind]
        raise ValidationError(f"{objective} objective requires {name} components")


def _node_values(model: MixtureModel, comps: list[int], axis: int, objective: str, proj, w, ts):
    """The objective at thresholds ts (any shape) for the node components
    comps, whose projected means are proj and normalized weights w: the
    probability bound that a point of the node-conditional mixture lies on
    the other side of the threshold from its own mean.  Unchecked: the
    callers check the objective, the kinds and that ts avoids the means."""
    if objective == "chebyshev":
        # min(1, sigma_i^2 / (mu_i - theta)^2), clamped as it bounds a probability
        terms = np.minimum(1.0, model.sigma[axis] ** 2 / (proj - ts[..., None]) ** 2)
    elif objective == "gaussian":
        stds = np.array([model.components[k].stddev[axis] for k in comps])
        terms = normal_upper_tail(np.abs(proj - ts[..., None]) / stds)
    else:
        # A component's separated mass is its mass on the side of theta away
        # from its mean, read off the prefix and suffix sums of its sorted masses.
        cols = []
        for k, mean in zip(comps, proj):
            comp = model.components[k]
            order = np.argsort(comp.support[:, axis], kind="stable")
            mass = comp.mass[order]
            at_or_below = np.concatenate([[0.0], np.cumsum(mass)])
            above = np.concatenate([np.cumsum(mass[::-1])[::-1], [0.0]])
            n_below = np.searchsorted(comp.support[order, axis], ts, side="right")
            cols.append(np.where(mean <= ts, above[n_below], at_or_below[n_below]))
        terms = np.stack(cols, axis=-1)
    return terms @ w


def objective_value(model: MixtureModel, node_components, axis: int, theta, objective: str):
    """The objective's value at theta, a float for a scalar theta and an
    array for an array of thresholds, none of which may lie on a projected
    mean of the node components."""
    comps = list(node_components)
    _check_objective(objective, (model.components[k] for k in comps))
    proj = model.means()[comps, axis]
    ts = np.asarray(theta, dtype=float)
    if np.any(ts[..., None] == proj):
        raise ValidationError("threshold on a mean")
    w = model.weights[comps]
    # chebyshev: (mu - theta)^2 may underflow or overflow; the clamped term stays right
    with np.errstate(divide="ignore", over="ignore"):
        values = _node_values(model, comps, axis, objective, proj, w / w.sum(), ts)
    return values if ts.ndim else float(values)


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


def _node_weights(model: MixtureModel, comps: list[int], axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Projected means and normalized weights of a node's components, which
    need two distinct projected means on the axis."""
    proj = model.means()[comps, axis]
    if not proj.min() < proj.max():
        raise ValidationError("need at least two distinct projected means on the axis")
    w = model.weights[comps]
    return proj, w / w.sum()


class _Slope(NamedTuple):
    """Slope f' of a continuous objective at one threshold per piece, as
    f' = factor * mantissa * exp(shift) per piece.  The terms are listed
    piece by piece, each piece's in component order; ``piece`` holds every
    term's piece and ``starts`` every piece's first term.  ``np.bincount``
    adds each piece's terms in list order, starting from 0.0, so a piece's
    slope does not depend on the pieces listed beside it.

    chebyshev (``sign`` None): f' = -(2 / sigma) sum_j coef_j / u_j^3 with
    u_j = (t - mu_j) / sigma and coef_j the weight of a term the piece leaves
    unclamped (else 0); factor 2 / sigma, shift 0.

    gaussian: f' = sum_j sign_j * w_j / s_j * phi(u_j) with
    u_j = (t - mu_j) / s_j, coef_j = log(w_j / s_j) - log sqrt(2 pi) and
    sign_j = +1 where mu_j lies above the piece; factor 1.  The terms are
    summed in the log domain, shifted by each piece's largest, so the sign
    survives where every term underflows (gaps over ~77 s_j).
    """

    proj: np.ndarray  # mu_j
    scale: np.ndarray  # sigma (chebyshev) or s_j (gaussian)
    coef: np.ndarray
    sign: np.ndarray | None
    piece: np.ndarray
    starts: np.ndarray

    @staticmethod
    def ragged(terms: tuple, sizes: np.ndarray) -> "_Slope":
        """The slope of terms (proj, scale, coef, sign) listed piece by
        piece, ``sizes[p]`` of them for piece p."""
        return _Slope(*terms, np.repeat(np.arange(sizes.size), sizes), np.cumsum(sizes) - sizes)

    def __call__(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray | float]:
        # in place, so a call holds one array of terms
        u = t[self.piece]
        u -= self.proj
        u /= self.scale
        if self.sign is None:
            u **= 3
            return -np.bincount(self.piece, np.divide(self.coef, u, out=u), self.starts.size), 0.0
        u **= 2
        u *= 0.5
        log_terms = np.subtract(self.coef, u, out=u)
        top = np.maximum.reduceat(log_terms, self.starts)
        log_terms -= top[self.piece]
        terms = np.exp(log_terms, out=log_terms)
        terms *= self.sign
        return np.bincount(self.piece, terms, self.starts.size), top


def _bisect(slope: _Slope, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Halve every bracket [a, b], on the sign of the slope at its midpoint,
    until no float lies strictly inside any bracket, and return the lower
    ends.  Each bracket holds one root of its piece's (monotone) slope."""
    for _ in range(_BISECT_MAX_ITERS):
        probe = 0.5 * (a + b)
        inside = (probe > a) & (probe < b)
        if not inside.any():
            break
        up = slope(probe)[0] > 0
        b = np.where(inside & up, probe, b)
        a = np.where(inside & ~up, probe, a)
    return a


def _brackets(model: MixtureModel, comps: list[int], axis: int, objective: str):
    """A continuous node's search up to the bisection: split its interval
    into pieces on which the objective is convex, and bracket those whose
    one-sided end slopes change sign and whose tangent-line lower bound does
    not already exceed the best end value.  Returns every piece's two ends,
    their objective values, the brackets' lower and upper ends, the brackets'
    slope terms (as ``terms`` lists them), and the objective as a function
    of thresholds."""
    proj, w = _node_weights(model, comps, axis)
    distinct = np.unique(proj)
    breaks = distinct
    if objective == "chebyshev":
        sigma = float(model.sigma[axis])
        clamp = np.concatenate([distinct - sigma, distinct + sigma])
        breaks = np.union1d(distinct, clamp[(clamp > distinct[0]) & (clamp < distinct[-1])])
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
        scale, coef, log_factor = np.full(proj.size, sigma), w, math.log(2.0 / sigma)
    else:
        scale = np.array([model.components[k].stddev[axis] for k in comps])
        coef, log_factor = np.log(w / scale) - 0.5 * math.log(2.0 * math.pi), 0.0

    def terms(mids):
        """(proj, scale, coef, sign) of the slope terms of the pieces with
        midpoints mids, piece by piece, each piece's in component order."""
        mu, at, c = np.tile(proj, mids.size), np.repeat(mids, proj.size), np.tile(coef, mids.size)
        if objective == "chebyshev":
            return mu, np.tile(scale, mids.size), np.where(np.abs(at - mu) > sigma, c, 0.0), None
        return mu, np.tile(scale, mids.size), c, np.where(mu > at, 1.0, -1.0)

    def values(ts):
        return _node_values(model, comps, axis, objective, proj, w, ts)

    slope = _Slope.ragged(terms(mid), np.full(mid.size, proj.size))
    f_lo, f_hi = values(lo), values(hi)
    (s_lo, e_lo), (s_hi, e_hi) = slope(lo), slope(hi)
    best_end = float(min(f_lo.min(), f_hi.min()))
    tol = _TIE_REL * max(1.0, abs(best_end))
    # Only a piece whose end slopes have opposite signs holds an interior
    # minimum.  Its end tangents meet below that minimum; the bound prunes
    # only where both slopes are representable (neither underflowed).
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        g_lo, g_hi = s_lo * np.exp(e_lo + log_factor), s_hi * np.exp(e_hi + log_factor)
        sloped = (g_lo < 0) & (g_hi > 0)
        reach = np.where(sloped, (f_lo - f_hi + g_hi * (hi - lo)) / (g_hi - g_lo), 0.0)
        bound = f_lo + g_lo * np.clip(reach, 0.0, hi - lo)
    rows = np.flatnonzero((s_lo < 0) & (s_hi > 0) & ~(sloped & (bound > best_end + tol)))
    return np.concatenate([lo, hi]), np.concatenate([f_lo, f_hi]), lo[rows], hi[rows], terms(mid[rows]), values


def _search_level(
    model: MixtureModel, nodes: list[tuple[list[int], int]], objective: str
) -> list[tuple[float, float]]:
    """(theta, value) of ``minimize_threshold`` for every (components, axis)
    node of one tree level.  A continuous objective's pieces are bracketed
    per node, and their slope roots found by one bisection over the brackets
    of all the level's nodes together: the level's slope lists the nodes'
    bracketed terms in turn."""
    if objective == "exact-discrete":
        found = []
        for comps, axis in nodes:
            proj, w = _node_weights(model, comps, axis)
            candidates = _midpoint_candidates(model, comps, axis)
            found.append(_lowest_tied(candidates, _node_values(model, comps, axis, objective, proj, w, candidates)))
        return found
    ends, f_ends, a, b, terms, values = zip(*(_brackets(model, comps, axis, objective) for comps, axis in nodes))
    sizes = np.repeat([len(comps) for comps, _ in nodes], [r.size for r in a])
    slope = _Slope.ragged([None if f[0] is None else np.concatenate(f) for f in zip(*terms)], sizes)
    roots = _bisect(slope, np.concatenate(a), np.concatenate(b))
    per_node = np.split(roots, np.cumsum([r.size for r in a])[:-1])
    return [
        _lowest_tied(np.concatenate([e, r]), np.concatenate([f, value(r)]))
        for e, f, r, value in zip(ends, f_ends, per_node, values)
    ]


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
    projections, all scored in one sweep (per component: one sort, then
    prefix sums), O(S log S) per node.

    The continuous objectives are convex on every piece of the interval
    between consecutive distinct projected means, further split (chebyshev)
    at the clamp breakpoints ``mu_j +- sigma``.  A piece end on a mean is
    pulled into the open gap by ``1e-12`` of the gap (at least one ulp).  Each
    piece contributes its two ends and, when its one-sided slopes change sign
    and its tangent-line lower bound does not already exceed the best end
    value, the root of its slope, found by bisection.  ``build_mmdt`` runs
    this search for all nodes of a tree level at once, with one bisection
    over all their pieces; each piece's slope terms are added in component
    order, so a node's result does not depend on the others.

    For every objective, candidates within ``_TIE_REL`` of the best value are
    tied and the lowest theta wins.
    """
    comps = list(node_components)
    _check_objective(objective, (model.components[k] for k in comps))
    return _search_level(model, [(comps, axis)], objective)[0]


def build_mmdt(model: MixtureModel, objective: str = "chebyshev") -> AxisTree:
    """Build the K-leaf tree: per node, select the best axis, minimize the
    threshold objective, and partition the remaining components by mean side.
    The tree grows one level at a time, the threshold searches of a level's
    nodes sharing one bisection.  Ties in axis or threshold go to the lowest,
    so the tree is determined by (model, objective)."""
    _check_objective(objective, model.components)
    if model.k < 2:
        raise ValidationError("need at least two components")
    means = model.means()
    splits: dict[tuple[int, ...], tuple[AxisCut, list[int], list[int]]] = {}
    level = [list(range(model.k))]
    while level:
        axes = [select_axis(model, comps)[0] for comps in level]
        found = _search_level(model, list(zip(level, axes)), objective)
        next_level = []
        for comps, axis, (theta, _) in zip(level, axes, found):
            left = [k for k in comps if means[k, axis] <= theta]
            right = [k for k in comps if means[k, axis] > theta]
            assert left and right, "threshold failed to separate component means"
            splits[tuple(comps)] = (AxisCut(axis=axis, theta=theta), left, right)
            next_level += [side for side in (left, right) if len(side) > 1]
        level = next_level

    def grow(comps: list[int]) -> TreeNode:
        if len(comps) == 1:
            return TreeNode(leaf=comps[0])
        cut, left, right = splits[tuple(comps)]
        return TreeNode(cut=cut, left=grow(left), right=grow(right))

    return AxisTree(
        root=grow(list(range(model.k))),
        dim=model.dim,
        n_leaves=model.k,
        model_fingerprint=model.fingerprint(),
        objective=objective,
    )


def leaf_cells(tree: AxisTree) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """(leaf, lo, hi) for every leaf in depth-first order, the leaf's cell
    being the box lo < x <= hi.  A cut outside its node's cell leaves an
    empty box (lo >= hi on the cut's axis) on one side of it."""
    cells: list[tuple[int, np.ndarray, np.ndarray]] = []

    def walk(node: TreeNode, lo: np.ndarray, hi: np.ndarray):
        if node.is_leaf:
            cells.append((node.leaf, lo.copy(), hi.copy()))
            return
        axis, theta = node.cut.axis, node.cut.theta
        hi_left = hi.copy()
        hi_left[axis] = min(hi[axis], theta)
        lo_right = lo.copy()
        lo_right[axis] = max(lo[axis], theta)
        walk(node.left, lo, hi_left)
        walk(node.right, lo_right, hi)

    walk(tree.root, np.full(tree.dim, -np.inf), np.full(tree.dim, np.inf))
    return cells


def check_structure(tree: AxisTree, means: np.ndarray) -> None:
    """Assert the structural invariants against component means (K x d):
    every leaf cell contains its component's mean, and the leaves map
    bijectively onto the components.  A cut outside its node's cell fails
    the first check, since the cell it leaves below it is empty."""
    k, d = means.shape
    if tree.dim != d:
        raise IncompatibilityError("tree dimension does not match means")
    seen: list[int] = []
    for leaf, lo, hi in leaf_cells(tree):
        if not k > leaf >= 0:
            raise ValidationError(f"leaf index {leaf} out of range")
        if not (np.all(means[leaf] > lo) and np.all(means[leaf] <= hi)):
            raise ValidationError(f"leaf cell does not contain mean of component {leaf}")
        seen.append(leaf)
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
