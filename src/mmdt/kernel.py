"""Product kernels, embedding statistics, and the kernel tree builder.

The kernel is a product over axes of monotone decreasing profiles
``g_i(|x_i - y_i|)`` with g_i(0) = 1 (gaussian ``exp(-gamma t^2)`` or
laplace ``exp(-gamma t)`` profiles).  The tree cuts on per-axis kernel
similarity to a sampled prototype point: ``kappa_i(x, prototype) < theta``
goes left, so a cut is equivalently a two-sided input-space interval.
One atom law, ``_atom_expectation`` of a ``_distance`` with the
coefficients of ``_exp_form``, gives every kernel value: the profile itself,
the Gram blocks of ``kernel_price`` and of the statistics.  The full
kernel's Gram, in ``_product``, takes one exponential per entry: every axis
with an exponential form adds its exponent to one sum.  On point pairs
``kernel_stats`` takes E kappa_i^2 as the square of kappa_i.  No Gram matrix
is held whole: ``kernel_stats`` and ``kernel_price`` take one Gram
walk, ``_row_blocks``, over row blocks of at most ``_GRAM_BLOCK`` entries,
and each reduces every block to row sums against its column masses.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import IncompatibilityError, ValidationError
from .evaluate import BOUND_CONSTANT, _ratio, _report_dict, evaluation_law
from .mixture import GAUSSIAN, MixtureModel, array_fingerprint, json_float, json_floats, json_int
from .tree import ThresholdTree, assign_components, check_fits, grow

PROFILES = ("gaussian", "laplace")

# Entries per Gram block.  ``_row_blocks`` walks rows in blocks of at most
# this many entries (one row, if a row holds more), which bounds the memory
# of the kernel layer in the number of rows and in the support size.
# Three blocks of 512 KB fit a 2 MB L2 cache: on the kernel-price benchmark
# 2^16 ran faster and peaked lower than 2^18 (BENCH_kernel_blocks.json).
_GRAM_BLOCK = 2**16

# numpy's ufunc buffer size, in elements, while a difference block is
# formed.  numpy copies a broadcast block through its buffer when the buffer
# holds three or more of the block's rows: at the default of 8192, rows
# shorter than 2,731 entries, such as the (65, 1000) and (81, 800) blocks of
# the kernel-price benchmark, cost 1.2-1.8 ns per entry, against 0.26-0.31 ns
# at this size, where rows of 342 entries and more go uncopied (numpy 2.4).
_DIFF_BUFSIZE = 1024

# In mc mode kernel_price embeds each component and each leaf by at most this
# many of its draws.
_MC_EMBED_ROWS = 2048


@dataclass(frozen=True)
class KernelSpec:
    """Per-axis profile ids and positive scale parameters gamma."""

    profiles: tuple[str, ...]
    gamma: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=float)
        profiles = tuple(self.profiles)
        if len(profiles) != g.shape[0]:
            raise ValidationError("profiles and gamma lengths differ")
        for p in profiles:
            if p not in PROFILES:
                raise ValidationError(f"unknown kernel profile {p!r}")
        if np.any(g <= 0) or not np.all(np.isfinite(g)):
            raise ValidationError("gamma must be positive and finite")
        g = g.copy()
        g.setflags(write=False)
        object.__setattr__(self, "profiles", profiles)
        object.__setattr__(self, "gamma", g)

    @staticmethod
    def uniform(profile: str, gamma, dim: int) -> "KernelSpec":
        g = np.broadcast_to(np.asarray(gamma, dtype=float), (dim,))
        return KernelSpec(profiles=(profile,) * dim, gamma=g)

    @property
    def dim(self) -> int:
        return len(self.profiles)

    def profile_value(self, axis: int, t):
        """g_i(|t|) at distances t: the atom law at variance 0."""
        t = np.asarray(t, dtype=float)
        out = np.array(t, ndmin=1)
        profile = self.profiles[axis]
        _atom_expectation(profile, self.gamma[axis], _distance(profile, out, 0.0), 0.0, out)
        return out if t.ndim else out[0]

    def profile_inverse(self, axis: int, value: float) -> float:
        """Distance r with g_i(r) = value, for value in (0, 1]."""
        if not 0.0 < value <= 1.0:
            raise ValidationError("profile values lie in (0, 1]")
        u = -math.log(value)
        if self.profiles[axis] == "gaussian":
            return math.sqrt(u / self.gamma[axis])
        return u / self.gamma[axis]

    def to_dict(self) -> dict:
        return {"profiles": list(self.profiles), "gamma": self.gamma.tolist()}

    @staticmethod
    def from_dict(d: dict) -> "KernelSpec":
        return KernelSpec(profiles=tuple(d["profiles"]), gamma=json_floats(d, "gamma"))

    def fingerprint(self) -> str:
        return array_fingerprint(*self.profiles, self.gamma)


def _check_kernel_dim(model: MixtureModel, kernel: KernelSpec) -> None:
    if kernel.dim != model.dim:
        raise IncompatibilityError(
            f"kernel dimension {kernel.dim} does not match model dimension {model.dim}"
        )


def _erfcx(x: float) -> float:
    """Scaled complementary error function exp(x^2) erfc(x) for x >= 0."""
    if x < 26.0:  # erfc(x) is a normal float here
        return math.exp(x * x) * math.erfc(x)
    # Asymptotic series; at x >= 26 its terms fall below 1e-16 by the eighth.
    total, term = 1.0, 1.0
    for n in range(1, 8):
        term *= -(2 * n - 1) / (2.0 * x * x)
        total += term
    return total / (x * math.sqrt(math.pi))


def _laplace_mean(diff: float, var: float, gamma: float) -> float:
    """E exp(-gamma |z|) for z ~ N(diff, var) with var > 0: the two half-line
    integrals exp(gamma^2 var / 2 -+ gamma diff) Phi(+-diff / s - gamma s),
    each written so that neither overflows nor underflows to a wrong 0."""
    s = math.sqrt(var)
    total = 0.0
    for sign in (1.0, -1.0):
        x = (gamma * s - sign * diff / s) / math.sqrt(2.0)
        if x < 0.0:  # then gamma * sign * diff > gamma^2 var, and the exponent is negative
            total += math.exp(0.5 * gamma * gamma * var - sign * gamma * diff) * math.erfc(x)
        else:
            total += math.exp(-0.5 * diff * diff / var) * _erfcx(x)
    return 0.5 * total


_LAPLACE_MEAN = np.vectorize(_laplace_mean, otypes=[float])


def _distance(profile: str, diff: np.ndarray, var: float) -> np.ndarray:
    """diff turned in place into what the atom law reads: its square for the
    gaussian profile, its absolute value for a laplace point pair (var 0),
    and the signed difference itself for the laplace mean."""
    if profile == "gaussian":
        return np.square(diff, out=diff)
    if var == 0.0:
        return np.abs(diff, out=diff)
    return diff


def _exp_form(profile: str, gamma: float, var: float):
    """(coef, c) with E g(|z|) = exp(coef * t) / sqrt(c) for z ~ N(diff, var)
    and t = _distance(profile, diff, var): the gaussian profile at any
    variance and the laplace profile at variance 0.  None for the laplace
    mean at var > 0, which has no such form."""
    if profile == "gaussian":
        c = 1.0 + 2.0 * gamma * var
        return -gamma / c, c
    if var == 0.0:
        return -gamma, 1.0
    return None


def _atom_expectation(profile: str, gamma: float, t: np.ndarray, var: float, out: np.ndarray) -> np.ndarray:
    """E g(|z|) for z ~ N(diff, var) per entry of t = _distance(profile, diff,
    var) (z = diff when var = 0), with g the gaussian or laplace profile of
    scale gamma, written to out; out may be t itself."""
    form = _exp_form(profile, gamma, var)
    if form is None:
        out[...] = _LAPLACE_MEAN(t, var, gamma)
        return out
    coef, c = form
    np.multiply(t, coef, out=out)
    np.exp(out, out=out)
    if c != 1.0:  # x / 1.0 == x
        out /= math.sqrt(c)
    return out


def _atoms(component) -> tuple:
    """(positions, per-axis variance, masses) of a component's atoms: the
    support points of a discrete law, each of zero width, or one atom at a
    Gaussian's mean with its variance."""
    if component.kind == GAUSSIAN:
        return component.mean[None, :], component.stddev**2, np.ones(1)
    return component.support, np.zeros(component.dim), component.mass


def _atom_grams(
    kernel: KernelSpec, a: np.ndarray, b: np.ndarray, var: np.ndarray, i: int, powers: tuple, out: tuple
) -> tuple:
    """Writes to out[j] the matrix of exact expectations E kappa_i^powers[j]
    between every atom of a and every atom of b, for atoms whose axis
    variances add to var (kappa_i^power is the same profile at
    power * gamma_i), and returns out.  a and b hold the atoms' positions
    axis by axis, as (d, rows) and (d, cols) arrays whose rows are
    contiguous.  One difference matrix serves every power: it is formed in
    out[-1], which takes the last power."""
    profile = kernel.profiles[i]
    bufsize = np.setbufsize(_DIFF_BUFSIZE)
    try:
        np.subtract(a[i, :, None], b[i], out=out[-1])
    finally:
        np.setbufsize(bufsize)
    t = _distance(profile, out[-1], var[i])
    for power, o in zip(powers, out):
        _atom_expectation(profile, power * kernel.gamma[i], t, var[i], o)
    return out


def _product(
    kernel: KernelSpec, a: np.ndarray, b: np.ndarray, var: np.ndarray, out: np.ndarray, work: np.ndarray
) -> np.ndarray:
    """The full kernel's Gram between atoms a (d, rows) and b (d, cols) whose
    axis variances add to var, in out, with work holding each later axis.
    Within an atom the axes are independent, so the Gram is the product of
    the axis Grams: every axis with an ``_exp_form`` adds coef_i * t_i to one
    exponent sum, which takes one exponential per entry and one division by
    the product of the sqrt(c_i); laplace axes at var > 0 then multiply in
    their means.  All d difference blocks are formed in one buffer scope."""
    forms = [_exp_form(*axis) for axis in zip(kernel.profiles, kernel.gamma, var)]
    bufsize = np.setbufsize(_DIFF_BUFSIZE)
    try:
        root, term = 1.0, out
        for i, form in enumerate(forms):
            if form is not None:
                coef, c = form
                np.subtract(a[i, :, None], b[i], out=term)
                np.multiply(_distance(kernel.profiles[i], term, var[i]), coef, out=term)
                if term is work:
                    out += work
                root *= math.sqrt(c)
                term = work
        if term is out:  # no axis has an exponential form
            out.fill(1.0)
        else:
            np.exp(out, out=out)
            if root != 1.0:  # x / 1.0 == x
                out /= root
        for i, form in enumerate(forms):
            if form is None:
                out *= _atom_grams(kernel, a, b, var, i, (1,), (work,))[0]
    finally:
        np.setbufsize(bufsize)
    return out


def _workspaces(size: int, n: int) -> list:
    """n buffers, each large enough for any row block between two sets of at
    most size atoms."""
    return [np.empty(min(max(_GRAM_BLOCK, size), size * size)) for _ in range(n)]


def _row_blocks(a: np.ndarray, b: np.ndarray, buffers: list):
    """The Gram walk between atoms a (d, rows) and b (d, cols), in row blocks
    of at most ``_GRAM_BLOCK`` entries (one row, if a row holds more): yields
    per block its row slice, its atoms a[:, rows] and the buffers shaped to
    the block."""
    cols = b.shape[1]
    step = max(1, _GRAM_BLOCK // cols)
    for start in range(0, a.shape[1], step):
        rows = slice(start, start + step)
        block = a[:, rows]
        views = [buf[: block.shape[1] * cols].reshape(block.shape[1], cols) for buf in buffers]
        yield rows, block, views


def _pair_atoms(model: MixtureModel, k: int, l: int) -> tuple:
    """(a, b, var, mass_a, mass_b): the atoms of components k and l axis by
    axis, their summed axis variances and their masses."""
    if not (0 <= k < model.k and 0 <= l < model.k):
        raise ValidationError(f"component index out of range: ({k}, {l}) with K={model.k}")
    a, var_a, mass_a = _atoms(model.components[k])
    b, var_b, mass_b = _atoms(model.components[l])
    return np.ascontiguousarray(a.T), np.ascontiguousarray(b.T), var_a + var_b, mass_a, mass_b


@dataclass(frozen=True)
class KernelStats:
    """Embedding statistics of a (model, kernel) pair.

    sigma2 is the smallest component self-similarity E[kappa(x, x')] (the
    per-component values are kept since the bounds assume they coincide);
    eps2 bounds the variance of every per-axis kernel;
    tau is the axis-aligned similarity max_{k != l} min_i xi(i, k, l).
    """

    sigma2: float
    sigma2_per_component: np.ndarray
    eps2: float
    tau: float
    xi_table: np.ndarray
    model_fingerprint: str
    kernel_fingerprint: str

    def __post_init__(self):
        if not 0.0 <= self.tau <= 1.0:
            raise ValidationError("tau outside [0, 1]")
        if not 0.0 < self.sigma2 <= 1.0:
            raise ValidationError("sigma2 outside (0, 1]")
        if not 0.0 <= self.eps2 <= 1.0:
            raise ValidationError("eps2 outside [0, 1]")
        # Entries are positive in exact arithmetic but may underflow to 0.
        if np.any(self.xi_table < 0) or np.any(self.xi_table > 1.0 + 1e-12):
            raise ValidationError("xi entries outside [0, 1]")


def kernel_stats(model: MixtureModel, kernel: KernelSpec) -> KernelStats:
    """Fill sigma2, eps2, tau, and the full xi table (axes x K x K), all exact.

    Every pair of components takes one Gram walk (``_row_blocks``).  Per
    block and axis, the Gram at powers 1 and 2, whose means are xi_i and
    E kappa_i^2, and on the self pair the product of the power-1 Grams over
    the axes, the full kernel's Gram, whose mean is sigma2_k, are each
    reduced to row sums against the column masses; each mean is then one dot
    of the row masses with its row sums.  On point pairs (var_i = 0)
    kappa_i^2 is a value, not an expectation, so the power-2 Gram is the
    square of the power-1 Gram; other pairs take the closed form at
    2 gamma_i.  Memory is three blocks of ``_GRAM_BLOCK`` floats and O(S d)
    besides, whatever the support size S.
    """
    _check_kernel_dim(model, kernel)
    d, K = model.dim, model.k

    xi_table = np.empty((d, K, K))
    sigma2_per = np.empty(K)
    eps2 = 0.0
    buffers = _workspaces(max(_atoms(c)[2].size for c in model.components), 3)
    for k in range(K):
        for l in range(k, K):
            a, b, var, mass_a, mass_b = _pair_atoms(model, k, l)
            sums = np.empty((2 * d + 1, mass_a.size))
            # The last Gram asked for also holds the difference block.
            for rows, block, (g, g2, full) in _row_blocks(a, b, buffers):
                if k == l:
                    full.fill(1.0)
                for i in range(d):
                    if var[i] == 0.0:
                        _atom_grams(kernel, block, b, var, i, (1,), (g,))
                        np.square(g, out=g2)
                    else:
                        _atom_grams(kernel, block, b, var, i, (1, 2), (g, g2))
                    sums[2 * i, rows] = g @ mass_b
                    sums[2 * i + 1, rows] = g2 @ mass_b
                    if k == l:
                        full *= g
                if k == l:
                    sums[2 * d, rows] = full @ mass_b
            for i in range(d):
                m = xi_table[i, k, l] = xi_table[i, l, k] = float(mass_a @ sums[2 * i])
                eps2 = max(eps2, float(mass_a @ sums[2 * i + 1]) - m**2)
            if k == l:
                sigma2_per[k] = float(mass_a @ sums[2 * d])
            del a, b, block, sums  # block is a view of a: one pair's arrays at a time

    spread = float(sigma2_per.max() - sigma2_per.min())
    if spread > 1e-6:
        warnings.warn(
            f"component self-similarities differ by {spread:.3g}; "
            "bounds use the minimum",
            stacklevel=2,
        )

    tau = float(np.max(xi_table.min(axis=0), where=~np.eye(K, dtype=bool), initial=0.0))

    return KernelStats(
        sigma2=float(sigma2_per.min()),
        sigma2_per_component=sigma2_per,
        eps2=min(1.0, eps2),
        tau=tau,
        xi_table=xi_table,
        model_fingerprint=model.fingerprint(),
        kernel_fingerprint=kernel.fingerprint(),
    )


@dataclass(frozen=True)
class KernelCut:
    """Similarity cut: kappa_axis(x, prototype) < theta goes left, equality
    goes right, with kappa the kernel of the tree that holds the cut."""

    axis: int
    prototype: np.ndarray
    theta: float
    anchor: int

    def __post_init__(self):
        proto = np.asarray(self.prototype, dtype=float).copy()
        proto.setflags(write=False)
        object.__setattr__(self, "prototype", proto)
        if not 0.0 < self.theta < 1.0:
            raise ValidationError("kernel threshold must lie in (0, 1)")

    def to_dict(self) -> dict:
        return {
            "axis": int(self.axis),
            "prototype": self.prototype.tolist(),
            "theta": float(self.theta),
            "anchor": int(self.anchor),
        }


@dataclass(frozen=True, kw_only=True)
class KernelTree(ThresholdTree):
    """Tree of kernel-similarity cuts with K leaves; its one kernel routes,
    labels and measures every cut."""

    kernel: KernelSpec
    seed: int = 0

    kind = "kernel"
    dot_name = "kernel_tree"
    json_keys = ("format_version", "kind", "dim", "n_leaves", "kernel", "model_fingerprint", "seed", "nodes")

    def __post_init__(self):
        super().__post_init__()
        if self.kernel.dim != self.dim:
            raise ValidationError(f"tree dim {self.dim} does not match kernel dimension {self.kernel.dim}")

    def header(self) -> dict:
        return {"kernel": self.kernel.to_dict(), "seed": int(self.seed)}

    @classmethod
    def header_from_dict(cls, d: dict, dim: int) -> dict:
        return {"kernel": KernelSpec.from_dict(d["kernel"]), "seed": json_int(d, "seed", 0)}

    @classmethod
    def read_cut(cls, d: dict, axis: int, dim: int) -> KernelCut:
        proto = json_floats(d, "prototype")
        if proto.shape != (dim,):
            raise ValidationError(f"prototype shape {proto.shape}, expected ({dim},)")
        return KernelCut(axis=axis, prototype=proto, theta=json_float(d, "theta"), anchor=json_int(d, "anchor"))

    def goes_left(self, cut: KernelCut, column: np.ndarray) -> np.ndarray:
        return self.kernel.profile_value(cut.axis, column - cut.prototype[cut.axis]) < cut.theta

    def radius(self, cut: KernelCut) -> float:
        """Input-space radius r with: |x_axis - prototype_axis| > r goes left."""
        return self.kernel.profile_inverse(cut.axis, cut.theta)

    def label(self, cut: KernelCut) -> str:
        """The interval form ``|x_i - p| > r`` of the cut."""
        return f"|x{cut.axis + 1} - {cut.prototype[cut.axis]:.6g}| > {self.radius(cut):.6g}"


def build_kernel_mmdt(
    model: MixtureModel, kernel: KernelSpec, stats: KernelStats, seed: int = 0
) -> KernelTree:
    """Grow the similarity tree.

    Per node: choose the (axis, pair) minimizing xi over the remaining set,
    anchor on the pair's lower index, put theta at the midpoint of the
    largest gap among the sorted {xi(axis, anchor, m)}, and sample a
    prototype from the anchor component with a seed derived from the build
    seed and the node's pre-order index.
    """
    _check_kernel_dim(model, kernel)
    if model.k < 2:
        raise ValidationError("need at least two components")
    fingerprint = model.fingerprint()
    if stats.model_fingerprint != fingerprint or stats.kernel_fingerprint != kernel.fingerprint():
        raise IncompatibilityError("stats were computed for a different model or kernel")

    def split(comps: list[int], node_index: int):
        if len(comps) == 1:
            return comps[0]

        # The smallest (xi, axis, k, l) with k < l: comps ascend, so the
        # first minimum in C order over (axis, k, l) breaks ties that way.
        block = np.where(np.tri(len(comps), dtype=bool), np.inf, stats.xi_table[:, comps][:, :, comps])
        axis, a, _ = map(int, np.unravel_index(np.argmin(block), block.shape))
        anchor = comps[a]

        values = stats.xi_table[axis, anchor, comps]
        order = np.argsort(values, kind="stable")
        sorted_vals = values[order]
        gaps = np.diff(sorted_vals)
        g = int(np.argmax(gaps))
        if gaps[g] <= 0.0:
            raise ValidationError("identical axis similarities; components cannot be separated")
        theta = 0.5 * (sorted_vals[g] + sorted_vals[g + 1])

        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed & (2**64 - 1), spawn_key=(node_index,))
        )
        prototype = model.components[anchor].sample(rng, 1)[0]

        left = [m for m, v in zip(comps, values) if v < theta]
        right = [m for m, v in zip(comps, values) if v > theta]
        assert left and right, "kernel threshold failed to separate components"
        return KernelCut(axis=axis, prototype=prototype, theta=theta, anchor=anchor), left, right

    nodes = grow(list(range(model.k)), split)
    return KernelTree(nodes=nodes, dim=model.dim, kernel=kernel, model_fingerprint=fingerprint, seed=seed)


def interval_predict(tree: KernelTree, x) -> int:
    """Route via the input-space interval form of every cut; must agree with
    tree.predict exactly."""
    x = np.asarray(x, dtype=float)
    if x.shape != (tree.dim,):
        raise IncompatibilityError(f"point has shape {x.shape}, tree expects ({tree.dim},)")
    i = 0
    while not isinstance(cut := tree.nodes[i], int):
        i = i + 1 if abs(x[cut.axis] - cut.prototype[cut.axis]) > tree.radius(cut) else tree.right[i]
    return cut


@dataclass(frozen=True)
class KernelPriceReport:
    """Embedding-space price of a kernel tree."""

    price: float
    price_hat: float
    error_rate: float
    baseline_cost: float
    tree_cost: float
    mc_samples: int
    mc_seed: int
    fallback_leaves: tuple = ()

    def to_dict(self) -> dict:
        return _report_dict(self)


def kernel_price(model: MixtureModel, tree: KernelTree, n: int = 0, seed: int = 0) -> KernelPriceReport:
    """Price of the kernel tree in the embedding space of ``tree.kernel``.

    Baseline: E||phi(x) - phi_{component(x)}||^2.  The tree cost is reported
    both with leaf-conditional mean embeddings (price) and with the assigned
    component embedding (price_hat).  The model is priced on
    ``evaluation_law(model, n, seed)``: exactly for all-discrete models.  On
    samples each component and each leaf is embedded by its first
    ``_MC_EMBED_ROWS`` rows; the draws are i.i.d., so such a prefix is a
    uniform random subset.
    """
    kernel = tree.kernel
    check_fits(tree, model.dim, model.k)
    pts, w, comp, mc_samples = evaluation_law(model, n, seed)
    exact = not mc_samples
    if not exact:
        w = np.full(n, 1.0 / n)
    cap = None if exact else _MC_EMBED_ROWS

    assigned = assign_components(tree, pts)

    # Component k's reference points C_k and leaf k's quadrature points Q_k
    # are row indices into one pool: C_k is the support in exact mode, and in
    # mc mode the component's first draws, or two fresh draws if it got none.
    pool = [pts]
    size = pts.shape[0]
    refs = []
    for k in range(model.k):
        idx = np.flatnonzero(comp == k)
        if exact:
            refs.append((idx, model.components[k].mass))
            continue
        if idx.size == 0:
            pool.append(model.components[k].sample(np.random.default_rng(seed ^ (k + 1)), 2))
            idx = np.arange(size, size + 2)
            size += 2
        idx = idx[:cap]
        refs.append((idx, np.full(idx.size, 1.0 / idx.size)))
    pool = np.vstack(pool)

    # ||phi(x) - phi_k||^2 = 1 + ||phi_k||^2 - 2 E_y kappa(x, y), with phi_k
    # the component embedding (column 0) or the leaf embedding (column 1).
    # One Gram walk per k over the rows that need either cross term
    # evaluates each Gram entry once.
    cost_own = np.empty(pts.shape[0])
    cost_hat = np.empty(pts.shape[0])
    cost_tilde = np.empty(pts.shape[0])
    cross = np.empty((size, 2))
    zero_var = np.zeros(model.dim)
    fallbacks: list[int] = []
    buffers = _workspaces(size, 2)
    for k in range(model.k):
        c_idx, c_mass = refs[k]
        own = np.flatnonzero(comp == k)
        leaf = np.flatnonzero(assigned == k)
        q_idx = leaf[:cap]
        q = w[q_idx] / w[q_idx].sum()
        if leaf.size == 0:
            fallbacks.append(k)
        cols = np.union1d(c_idx, q_idx)
        mass = np.zeros((cols.size, 2))
        mass[np.searchsorted(cols, c_idx), 0] = c_mass
        mass[np.searchsorted(cols, q_idx), 1] = q
        rows = np.union1d(np.union1d(own, leaf), c_idx)
        row_pts, ref_pts = np.ascontiguousarray(pool[rows].T), np.ascontiguousarray(pool[cols].T)
        for block, block_pts, views in _row_blocks(row_pts, ref_pts, buffers):
            cross[rows[block]] = _product(kernel, block_pts, ref_pts, zero_var, *views) @ mass
        self_sim = float(c_mass @ cross[c_idx, 0])
        cost_own[own] = 1.0 + self_sim - 2.0 * cross[own, 0]
        cost_hat[leaf] = 1.0 + self_sim - 2.0 * cross[leaf, 0]
        if leaf.size:
            cost_tilde[leaf] = 1.0 + float(q @ cross[q_idx, 1]) - 2.0 * cross[leaf, 1]

    baseline = float(w @ cost_own)
    tree_cost = float(w @ cost_tilde)
    return KernelPriceReport(
        price=_ratio(tree_cost, baseline),
        price_hat=_ratio(float(w @ cost_hat), baseline),
        error_rate=float(w @ (assigned != comp)),
        baseline_cost=baseline,
        tree_cost=tree_cost,
        mc_samples=mc_samples,
        mc_seed=seed if mc_samples else 0,
        fallback_leaves=tuple(fallbacks),
    )


def thm5_bound(alpha: float, k: int, sigma2: float, eps2: float, tau: float) -> float:
    """Kernel price upper bound
    1 + ((1 + sigma2) / (1 - sigma2)) * max(1, C * alpha * eps2 * K(K-1) / (sigma2 - tau))."""
    if not 0.0 < sigma2 < 1.0:
        raise ValidationError("sigma2 must lie in (0, 1)")
    if tau >= sigma2:
        raise ValidationError("similarity exceeds self-similarity")
    if alpha < 1 or k < 2 or eps2 < 0:
        raise ValidationError("need alpha >= 1, K >= 2, eps2 >= 0")
    inner = BOUND_CONSTANT * alpha * eps2 * k * (k - 1) / (sigma2 - tau)
    return 1.0 + (1.0 + sigma2) / (1.0 - sigma2) * max(1.0, inner)


def check_structure(tree: KernelTree, stats: KernelStats) -> None:
    """Assert structural invariants: every node's anchor is one of its
    components, the xi values of the two sides strictly straddle the node's
    threshold (so each component's path is consistent with its similarity
    to the anchor), and every leaf is the one component left at it.  The
    splits partition the K components, so the leaves are a bijection onto
    them."""
    stack = [(0, list(range(tree.n_leaves)))]
    while stack:
        i, comps = stack.pop()
        cut = tree.nodes[i]
        if isinstance(cut, int):
            if comps != [cut]:
                raise ValidationError(f"leaf {cut} does not match remaining set {comps}")
            continue
        if cut.anchor not in comps:
            raise ValidationError("cut anchor is not among the node's components")
        left = [m for m in comps if stats.xi_table[cut.axis, cut.anchor, m] < cut.theta]
        right = [m for m in comps if stats.xi_table[cut.axis, cut.anchor, m] > cut.theta]
        if sorted(left + right) != sorted(comps) or not left or not right:
            raise ValidationError("threshold does not split the node's components")
        stack += [(tree.right[i], right), (i + 1, left)]

