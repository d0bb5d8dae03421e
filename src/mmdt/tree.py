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
objective's slope.  The tree grows one level at a time.  Per level, one pass
on flat arrays with a node id per term builds every node's pieces, end values
and brackets, one vectorized search on the slope's sign finds the roots
(safeguarded Newton steps, each probe moving one end of its bracket), and
one tie pick chooses every node's threshold.  Each piece lists its node's
terms in component order and adds them from 0.0 (``np.bincount``), so a
node's threshold does not depend on the other nodes of its level.  For every
objective, candidates within a relative ``1e-12`` of the best are tied and
the lowest threshold wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np

from .errors import IncompatibilityError, ValidationError
from .mixture import DISCRETE, GAUSSIAN, MixtureModel, json_int

# Each objective and the component kind it requires (None: any kind).
OBJECTIVES = {"exact-discrete": DISCRETE, "chebyshev": None, "gaussian": GAUSSIAN}

# The level's root search (``_slope_roots``) probes every bracket at most
# this many times.  It stops earlier once no bracket has a float strictly
# inside, after about 10 probes where Newton steps converge.  A bracket
# around a root at or next to zero can hold more floats than that many
# probes can exhaust; there the cap returns an end with slope <= 0 whose
# bracket is not closed.
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

    def to_dict(self) -> dict:
        return {"axis": int(self.axis), "theta": float(self.theta)}


@dataclass(frozen=True)
class TreeNode:
    """Internal node (cut plus two children) or leaf (component index).

    A cut is an ``AxisCut`` or a ``kernel.KernelCut``: plain data with an
    ``axis`` and ``to_dict()``.  The tree that holds it routes and labels it.
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
        """Parse a node; read_cut(d, axis, dim) makes the cut once its axis
        is known to lie in 0..dim-1."""
        if "leaf" in d:
            return TreeNode(leaf=json_int(d, "leaf"))
        axis = json_int(d, "axis")
        if not 0 <= axis < dim:
            raise ValidationError(f"cut axis {axis} outside 0..{dim - 1}")
        return TreeNode(
            cut=read_cut(d, axis, dim),
            left=TreeNode.from_dict(d["left"], dim, read_cut),
            right=TreeNode.from_dict(d["right"], dim, read_cut),
        )


@dataclass(frozen=True)
class ThresholdTree:
    """Binary tree with K leaves, one per component index.

    A subclass sets ``kind``, ``dot_name`` and the JSON key order
    ``json_keys``, and defines ``header()`` (its JSON header fields),
    ``header_from_dict(d, dim)`` (its constructor arguments),
    ``read_cut(d, axis, dim)`` (a cut from its JSON node), and
    ``goes_left(cut, column)`` and ``label(cut)`` (how its cuts route the
    points' values on the cut's axis, and how they read).
    """

    root: TreeNode
    dim: int
    model_fingerprint: str = ""

    kind: ClassVar[str]
    dot_name: ClassVar[str]
    json_keys: ClassVar[tuple[str, ...]]

    def leaves(self) -> list[int]:
        def walk(node: TreeNode) -> list[int]:
            return [node.leaf] if node.is_leaf else walk(node.left) + walk(node.right)

        return walk(self.root)

    @property
    def n_leaves(self) -> int:
        return len(self.leaves())

    def to_dict(self) -> dict:
        fields = {
            "format_version": 1,
            "kind": self.kind,
            "dim": int(self.dim),
            "n_leaves": self.n_leaves,
            "model_fingerprint": self.model_fingerprint,
            "root": self.root.to_dict(),
            **self.header(),
        }
        return {key: fields[key] for key in self.json_keys if key in fields}

    @classmethod
    def from_dict(cls, d: dict) -> "ThresholdTree":
        """Parse a tree, raising ValidationError unless every cut axis lies
        in 0..dim-1 and the leaves are a bijection onto 0..n_leaves-1."""
        dim = json_int(d, "dim")
        header = cls.header_from_dict(d, dim)
        tree = cls(
            root=TreeNode.from_dict(d["root"], dim, cls.read_cut),
            dim=dim,
            model_fingerprint=d.get("model_fingerprint", ""),
            **header,
        )
        n_leaves = json_int(d, "n_leaves")
        leaves = sorted(tree.leaves())
        if leaves != list(range(n_leaves)):
            raise ValidationError(f"leaves {leaves} are not a bijection onto 0..{n_leaves - 1}")
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
    def read_cut(cls, d: dict, axis: int, dim: int) -> AxisCut:
        return AxisCut(axis=axis, theta=float(d["theta"]))

    def goes_left(self, cut: AxisCut, column: np.ndarray) -> np.ndarray:
        return column <= cut.theta

    def label(self, cut: AxisCut) -> str:
        return f"x{cut.axis + 1} <= {cut.theta:.6g}"


def predict(tree: ThresholdTree, x) -> int:
    """Route one point of shape (dim,) through the tree."""
    x = np.asarray(x, dtype=float)
    if x.shape != (tree.dim,):
        raise IncompatibilityError(f"point has shape {x.shape}, tree expects ({tree.dim},)")
    return int(assign_components(tree, x[None, :])[0])


def check_fits(tree: ThresholdTree, dim: int, k: int) -> None:
    """Raise IncompatibilityError unless the tree cuts dim axes and has k leaves."""
    if tree.dim != dim:
        raise IncompatibilityError(f"tree has dimension {tree.dim}, expected {dim}")
    if tree.n_leaves != k:
        raise IncompatibilityError(f"tree has {tree.n_leaves} leaves, expected {k}")


def assign_components(tree: ThresholdTree, points: np.ndarray) -> np.ndarray:
    """Leaf of every row of an (n, d) array: at each node the rows that the
    tree's ``goes_left`` sends left move to the left child, the rest to the
    right."""
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
        go_left = tree.goes_left(node.cut, points[idx, node.cut.axis])
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


def _tail_terms(objective: str, dist: np.ndarray, scale):
    """Each component's term of a continuous objective at the signed
    distance dist between its mean and the threshold, on the axis scale
    sigma (chebyshev) or its own stddev (gaussian).  Overwrites dist."""
    if objective == "chebyshev":
        # min(1, sigma^2 / (mu - theta)^2), clamped as it bounds a probability
        dist *= dist
        return np.minimum(np.divide(scale**2, dist, out=dist), 1.0, out=dist)
    return normal_upper_tail(np.divide(np.abs(dist, out=dist), scale, out=dist))


def _discrete_values(model: MixtureModel, comps: list[int], axis: int, proj, w, ts):
    """The exact-discrete objective at thresholds ts (any shape) for the node
    components comps, whose projected means are proj and normalized weights
    w: the mass of the node-conditional mixture on the other side of the
    threshold from its own component's mean.  Unchecked: the callers check
    the kinds and that ts avoids the means."""
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
    return np.stack(cols, axis=-1) @ w


def objective_value(model: MixtureModel, node_components, axis: int, theta, objective: str):
    """The objective's value at theta, a float for a scalar theta and an
    array for an array of thresholds, none of which may lie on a projected
    mean of the node components."""
    comps = list(node_components)
    _check_objective(objective, (model.components[k] for k in comps))
    if not comps:
        raise ValidationError("no components at the node")
    proj = model.means()[comps, axis]
    ts = np.asarray(theta, dtype=float)
    if np.any(ts[..., None] == proj):
        raise ValidationError("threshold on a mean")
    w, n = model.weights[comps], ts.size
    if objective == "exact-discrete":
        values = _discrete_values(model, comps, axis, proj, w / w.sum(), ts)
    else:
        # one piece per threshold, its terms weighted and added as the threshold search does
        scale = model.sigma[[axis] * len(comps)] if objective == "chebyshev" else model.stddevs()[comps, axis]
        terms = (np.tile(proj, n), np.tile(scale, n), None, None, np.tile(w / np.add.reduceat(w, [0]), n))
        # chebyshev: (mu - theta)^2 may underflow or overflow; the clamped term stays right
        with np.errstate(divide="ignore", over="ignore"):
            values = _Slope.ragged(terms, np.full(n, len(comps))).values(objective, ts.ravel()).reshape(ts.shape)
    return values if ts.ndim else float(values)


def _midpoint_candidates(model: MixtureModel, comps: list[int], axis: int) -> np.ndarray:
    """Ascending midpoints of consecutive distinct support and mean projections
    within the span of the means: one per piece of the exact objective."""
    proj = model.means()[comps, axis]
    values = [proj] + [model.components[k].support[:, axis] for k in comps]
    breaks = np.unique(np.concatenate(values))
    breaks = breaks[(breaks >= proj.min()) & (breaks <= proj.max())]
    return 0.5 * (breaks[:-1] + breaks[1:])


def _lowest_tied(starts: np.ndarray, thetas: np.ndarray, vals: np.ndarray) -> list[tuple[float, float]]:
    """(theta, value) per node, whose candidates run from ``starts`` to the
    next node's: the lowest theta among values within ``_TIE_REL`` of the
    node's minimum.  Equal thetas have equal values, so which is read does
    not matter."""
    node = np.repeat(np.arange(starts.size), np.diff(starts, append=thetas.size))
    best = np.minimum.reduceat(vals, starts)
    tied = vals <= (best + _TIE_REL * np.maximum(1.0, np.abs(best)))[node]
    theta = np.minimum.reduceat(np.where(tied, thetas, np.inf), starts)
    value = np.minimum.reduceat(np.where(tied & (thetas == theta[node]), vals, np.inf), starts)
    return list(zip(theta.tolist(), value.tolist()))


class _Slope(NamedTuple):
    """Slope f' of a continuous objective at one threshold per piece, as
    f' = factor * mantissa * exp(shift) per piece, (``values``) the
    objective there, and (``newton``) the slope's sign with a Newton point.  The terms are listed piece by piece, each piece's in
    its node's component order; ``piece`` holds every term's piece and
    ``sizes`` every piece's number of terms.  ``np.bincount`` adds each
    piece's terms in list order, starting from 0.0, so a piece's slope and
    value do not depend on the pieces listed beside it, whichever node they
    belong to.

    chebyshev (``sign`` None): f' = -(2 / sigma) sum_j coef_j / u_j^3 with
    u_j = (t - mu_j) / sigma, cubed as u_j * (u_j * u_j), and coef_j the
    weight of a term the piece leaves unclamped (else 0); factor 2 / sigma,
    shift 0.

    gaussian: f' = sum_j sign_j * w_j / s_j * phi(u_j) with
    u_j = (t - mu_j) / s_j, coef_j = log(w_j / s_j) - log sqrt(2 pi) and
    sign_j = +1 where mu_j lies above the piece; factor 1.  The terms are
    summed in the log domain, shifted by each piece's largest, so the sign
    survives where every term underflows (gaps over ~77 s_j).
    """

    proj: np.ndarray  # mu_j
    scale: np.ndarray  # sigma (chebyshev) or s_j (gaussian)
    coef: np.ndarray | None
    sign: np.ndarray | None
    w: np.ndarray  # w_j, normalized over the node
    piece: np.ndarray
    sizes: np.ndarray
    starts: np.ndarray  # every piece's first term

    @staticmethod
    def ragged(terms: tuple, sizes: np.ndarray) -> "_Slope":
        """The slope of terms (proj, scale, coef, sign, w) listed piece by
        piece, ``sizes[p]`` of them for piece p."""
        return _Slope(*terms, np.repeat(np.arange(sizes.size), sizes), sizes, np.cumsum(sizes) - sizes)

    def __call__(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray | float]:
        # in place, so a call holds one array of terms
        u = np.repeat(t, self.sizes)
        u -= self.proj
        u /= self.scale
        if self.sign is None:
            u *= u * u
            return -np.bincount(self.piece, np.divide(self.coef, u, out=u), self.sizes.size), 0.0
        u **= 2
        u *= 0.5
        log_terms = np.subtract(self.coef, u, out=u)
        top = np.maximum.reduceat(log_terms, self.starts)
        log_terms -= top[self.piece]
        terms = np.exp(log_terms, out=log_terms)
        terms *= self.sign
        return np.bincount(self.piece, terms, self.sizes.size), top

    def values(self, objective: str, t: np.ndarray) -> np.ndarray:
        """The objective at one threshold per piece, its terms added in list order."""
        dist = np.repeat(t, self.sizes)
        dist -= self.proj
        terms = _tail_terms(objective, dist, self.scale)
        terms *= self.w
        return np.bincount(self.piece, terms, self.sizes.size)

    def workspace(self) -> tuple[np.ndarray, np.ndarray]:
        """What ``newton`` reuses from call to call: an array of terms, and
        sigma / 3 per piece (chebyshev) or every term's piece and side,
        2 * piece + (sign_j > 0) (gaussian)."""
        if self.sign is None:
            return np.empty(self.proj.size), self.scale[self.starts] / 3.0
        return np.empty(self.proj.size), 2 * self.piece + (self.sign > 0)

    def newton(self, t: np.ndarray, work: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """The slope at t, bit for bit the first output of ``__call__``, and
        from the same terms each piece's Newton point t - g / g' for a g
        with the slope's sign and root: the slope itself (chebyshev), or
        h = log P - log N, P and N the sums of its positive and negative
        terms (gaussian), which stays steep where the terms fade in the
        tails.  The Newton point is not finite where all of one side's terms
        underflow.  ``work`` is the slope's ``workspace()``; run under an
        ``np.errstate`` that ignores divide, overflow and invalid."""
        u, (v, extra) = np.repeat(t, self.sizes), work
        u -= self.proj
        u /= self.scale
        n = self.sizes.size
        if self.sign is None:
            # f' = -(2 / sigma) S_3 and f'' = (6 / sigma^2) S_4, with S_m = sum_j coef_j / u_j^m
            np.multiply(u, u, out=v)
            v *= u
            cubes = np.bincount(self.piece, np.divide(self.coef, v, out=v), n)
            step = np.divide(cubes, np.bincount(self.piece, np.divide(v, u, out=v), n))
            step *= extra
            step += t
            return np.negative(cubes, out=cubes), step
        np.square(u, out=v)
        v *= 0.5
        log_terms = np.subtract(self.coef, v, out=v)
        log_terms -= np.maximum.reduceat(log_terms, self.starts)[self.piece]
        terms = np.exp(log_terms, out=log_terms)
        # [N, P] per piece, and [-N', -P'], as d/dt of a term is -(u_j / s_j) times it
        sides = np.bincount(extra, terms, 2 * n)
        u /= self.scale
        u *= terms
        rates = np.bincount(extra, u, 2 * n)
        terms *= self.sign
        slope = np.bincount(self.piece, terms, n)
        rates /= sides
        h = np.log(np.divide(sides[1::2], sides[::2], out=sides[1::2]))
        h /= np.subtract(rates[::2], rates[1::2], out=rates[::2])  # h' = P'/P - N'/N
        return slope, np.subtract(t, h, out=h)


def _slope_roots(slope: _Slope, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Narrow every bracket [a, b] until no float lies strictly inside it,
    and return the lower ends.  Each bracket holds one root of its piece's
    (monotone) slope, with slope(a) <= 0 < slope(b).  A probe moves b down
    to it where the slope there is positive, else a up, so every returned
    a keeps slope(a) <= 0 < slope(nextafter(a, inf)).

    The first probe is the midpoint.  Each next one lies past the last
    probe's Newton point (``_Slope.newton``), toward the bracket's far end,
    by one ulp, or by 2^r ulps after r probes in a row on one side: a
    Newton step of about an ulp then closes the far end, and a run of
    probes in a band where the computed slope is zero or rounding noise
    crosses it in a few doublings.  Where that point is not strictly inside
    the bracket (Newton overshot, or one side's terms underflowed) the
    probe is the midpoint.  A closed bracket probes its own end, which
    moves nothing."""
    work = slope.workspace()
    probe, run, was_up = 0.5 * (a + b), np.zeros(a.size, dtype=int), np.zeros(a.size, dtype=bool)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(_BISECT_MAX_ITERS):
            if not np.count_nonzero((probe > a) & (probe < b)):
                break
            value, newton = slope.newton(probe, work)
            up = value > 0
            a, b = np.where(up, a, probe), np.where(up, probe, b)
            run += 1
            run *= up == was_up
            probe = newton + np.ldexp(np.nextafter(newton, np.where(up, a, b)) - newton, run)
            probe = np.where((probe > a) & (probe < b), probe, 0.5 * (a + b))
            was_up = up
    return a


def _level_brackets(model: MixtureModel, nodes: list[tuple[list[int], int]], objective: str):
    """A continuous level's search up to the root search, on flat arrays over
    all its (components, axis) nodes: split each node's interval into pieces
    on which its objective is convex, and bracket the pieces whose one-sided
    end slopes change sign and whose tangent-line lower bound does not
    already exceed the node's best end value.  Returns every node's first
    piece, every piece's two ends and their objective values, the bracketed
    pieces, and their slope."""
    sizes = np.array([len(comps) for comps, _ in nodes])
    first, node = np.cumsum(sizes) - sizes, np.repeat(np.arange(sizes.size), sizes)
    axis = np.array([axis for _, axis in nodes])[node]
    comp = np.concatenate([comps for comps, _ in nodes])
    mu, w = model.means()[comp, axis], model.weights[comp]
    w = w / np.add.reduceat(w, first)[node]
    # Breakpoints: each node's distinct means and (chebyshev) the clamp
    # breakpoints mu_j +- sigma strictly inside its span, sorted per node,
    # a mean first where a breakpoint lands on one.
    breaks, of, on_mean = mu, node, np.ones(mu.size, dtype=bool)
    if objective == "chebyshev":
        scale, coef = model.sigma[axis], None  # a term's coef is its weight, or 0 where clamped
        clamp = np.concatenate([mu - scale, mu + scale])
        of_clamp = np.tile(node, 2)
        inside = (clamp > np.minimum.reduceat(mu, first)[of_clamp]) & (clamp < np.maximum.reduceat(mu, first)[of_clamp])
        breaks, of = np.concatenate([mu, clamp[inside]]), np.concatenate([node, of_clamp[inside]])
        on_mean = np.concatenate([on_mean, np.zeros(int(inside.sum()), dtype=bool)])
    else:
        scale = model.stddevs()[comp, axis]
        coef = np.log(w / scale) - 0.5 * math.log(2.0 * math.pi)
    order = np.lexsort((~on_mean, breaks, of))
    breaks, of, on_mean = breaks[order], of[order], on_mean[order]
    new = np.concatenate([[True], (breaks[1:] != breaks[:-1]) | (of[1:] != of[:-1])])
    breaks, of, on_mean = breaks[new], of[new], on_mean[new]
    if np.any(np.bincount(of[on_mean], minlength=sizes.size) < 2):
        raise ValidationError("need at least two distinct projected means on the axis")
    # A piece joins consecutive breakpoints of one node.  Its ends on a mean
    # are pulled into the open gap by 1e-12 of the gap between the means
    # around it (at least one ulp); a piece no wider than the pull-in (a
    # breakpoint hugging a mean, or means one ulp apart) is dropped.
    index = np.arange(breaks.size)
    below = np.maximum.accumulate(np.where(on_mean, index, 0))
    above = np.minimum.accumulate(np.where(on_mean, index, breaks.size)[::-1])[::-1]
    p = np.flatnonzero(of[1:] == of[:-1])
    start, stop, pull = breaks[p], breaks[p + 1], (breaks[above[p + 1]] - breaks[below[p]]) * 1e-12
    lo = np.where(on_mean[p], np.maximum(start + pull, np.nextafter(start, stop)), start)
    hi = np.where(on_mean[p + 1], np.minimum(stop - pull, np.nextafter(stop, start)), stop)
    lo, hi, of = lo[lo <= hi], hi[lo <= hi], of[p][lo <= hi]
    count = np.bincount(of, minlength=sizes.size)
    if np.any(count == 0):
        raise ValidationError("no threshold strictly between the projected means")
    first_piece, n = np.cumsum(count) - count, sizes[of]
    # Piece p lists its node's terms in order.  Which side of each mean it
    # lies on, and (chebyshev) which terms it clamps, is fixed by its
    # midpoint, so the slopes at its ends are one-sided.
    term = np.repeat(first[of] - (np.cumsum(n) - n), n) + np.arange(n.sum())
    mu, scale, w, at = mu[term], scale[term], w[term], np.repeat(0.5 * (lo + hi), n)
    if objective == "chebyshev":
        at -= mu
        slope = _Slope.ragged((mu, scale, np.where(np.abs(at, out=at) > scale, w, 0.0), None, w), n)
        log_factor = np.array([math.log(2.0 / s) for s in model.sigma[axis[first]]])[of]
    else:
        slope, log_factor = _Slope.ragged((mu, scale, coef[term], np.where(mu > at, 1.0, -1.0), w), n), 0.0
    del term, at  # a level can list millions of terms
    with np.errstate(divide="ignore", over="ignore"):
        f_lo, f_hi = slope.values(objective, lo), slope.values(objective, hi)
    (s_lo, e_lo), (s_hi, e_hi) = slope(lo), slope(hi)
    best = np.minimum.reduceat(np.minimum(f_lo, f_hi), first_piece)
    best += _TIE_REL * np.maximum(1.0, np.abs(best))
    # Only a piece whose end slopes have opposite signs holds an interior
    # minimum.  Its end tangents meet below that minimum; the bound prunes
    # only where both slopes are representable (neither underflowed).
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        g_lo, g_hi = s_lo * np.exp(e_lo + log_factor), s_hi * np.exp(e_hi + log_factor)
        sloped = (g_lo < 0) & (g_hi > 0)
        reach = np.where(sloped, (f_lo - f_hi + g_hi * (hi - lo)) / (g_hi - g_lo), 0.0)
        bound = f_lo + g_lo * np.clip(reach, 0.0, hi - lo)
    rows = (s_lo < 0) & (s_hi > 0) & ~(sloped & (bound > best[of]))
    keep = rows[slope.piece]
    bracketed = _Slope.ragged(tuple(c if c is None else c[keep] for c in slope[:5]), n[rows])
    return first_piece, lo, hi, f_lo, f_hi, rows, bracketed


def _search_level(
    model: MixtureModel, nodes: list[tuple[list[int], int]], objective: str
) -> list[tuple[float, float]]:
    """(theta, value) of ``minimize_threshold`` for every (components, axis)
    node of one tree level.  A continuous objective's pieces are built and
    bracketed for all the level's nodes together, and their slope roots
    found by one search over all the brackets; one tie pick then chooses
    every node's threshold among its piece ends and roots."""
    if objective == "exact-discrete":
        found = []
        for comps, axis in nodes:
            proj, w = model.means()[comps, axis], model.weights[comps]
            if not proj.min() < proj.max():
                raise ValidationError("need at least two distinct projected means on the axis")
            candidates = _midpoint_candidates(model, comps, axis)
            found.append((candidates, _discrete_values(model, comps, axis, proj, w / w.sum(), candidates)))
        sizes = np.array([c.size for c, _ in found])
        return _lowest_tied(np.cumsum(sizes) - sizes, *(np.concatenate(f) for f in zip(*found)))
    first, lo, hi, f_lo, f_hi, rows, slope = _level_brackets(model, nodes, objective)
    roots, f_roots = np.full(lo.size, np.inf), np.full(lo.size, np.inf)
    roots[rows] = _slope_roots(slope, lo[rows], hi[rows])
    with np.errstate(divide="ignore", over="ignore"):
        f_roots[rows] = slope.values(objective, roots[rows])
    # per piece: its lower end, its upper end, its root
    return _lowest_tied(3 * first, np.stack([lo, hi, roots], 1).ravel(), np.stack([f_lo, f_hi, f_roots], 1).ravel())


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
    value, the root of its slope.  The root is found on the slope's sign:
    each probe moves one end of the piece's bracket, until no float lies
    between the ends, so the slope is <= 0 at the root and > 0 one float
    above it.  The first probe is the midpoint, the next ones Newton points
    pushed an ulp or more toward the far end, or the midpoint where Newton
    leaves the bracket: about 10 probes per level, at most
    ``_BISECT_MAX_ITERS``.  ``build_mmdt`` runs this search for all nodes of
    a tree level at once: one construction of the pieces and brackets on
    flat arrays with a node id per term, one root search, one tie pick.
    Each piece's terms are added in component order from 0.0, so a node's
    result does not depend on the others.

    For every objective, candidates within ``_TIE_REL`` of the best value are
    tied and the lowest theta wins.
    """
    comps = list(node_components)
    _check_objective(objective, (model.components[k] for k in comps))
    if len(comps) < 2:
        raise ValidationError("need at least two distinct projected means on the axis")
    return _search_level(model, [(comps, axis)], objective)[0]


def build_mmdt(model: MixtureModel, objective: str = "chebyshev") -> AxisTree:
    """Build the K-leaf tree: per node, select the best axis, minimize the
    threshold objective, and partition the remaining components by mean side.
    The tree grows one level at a time, the threshold searches of a level's
    nodes sharing one root search.  Ties in axis or threshold go to the lowest,
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
        lines.append(f'  n{idx} [label="{tree.label(node.cut)}"];')
        l = walk(node.left)
        r = walk(node.right)
        lines.append(f'  n{idx} -> n{l} [label="yes"];')
        lines.append(f'  n{idx} -> n{r} [label="no"];')
        return idx

    walk(tree.root)
    lines.append("}")
    return "\n".join(lines) + "\n"
