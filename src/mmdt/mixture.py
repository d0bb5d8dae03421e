"""Mixture models: representation, sampling, moment summaries, and EM estimation.

A mixture is a weighted collection of components, each either a diagonal
Gaussian or a finite discrete distribution.  Besides the component
parameters, the model carries per-axis mixture standard deviations (the
pooled within-component noise scale used by the tree builder) and the
weight-cap parameter alpha with p_k <= alpha / K.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

GAUSSIAN = "gaussian-diagonal"
DISCRETE = "finite-discrete"

# The model assumes strictly positive noise scales; degenerate data is
# floored here instead of dividing by zero downstream.
VARIANCE_FLOOR = 1e-12

_MASS_TOL = 1e-9


def _as_float_array(x, name: str, ndim: int) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != ndim:
        raise ValidationError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite values")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


def json_int(d: dict, key: str, default: int | None = None) -> int:
    """d[key], or default when given and the key is absent, if it is a JSON
    integer; a float (even 2.0), a bool or any other value raises TypeError,
    so that no integer field of an artifact is silently truncated."""
    value = d[key] if default is None else d.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{key} must be an integer, got {value!r}")
    return value


def json_float(d: dict, key: str) -> float:
    """d[key] as a float if it is a JSON number, an integer or a float; a
    bool, a string or any other value raises TypeError, so that no number
    field of an artifact is read from text or from true and false."""
    value = d[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{key} must be a number, got {value!r}")
    return float(value)


def json_floats(d: dict, key: str, ndim: int = 1) -> np.ndarray:
    """d[key] as a float array if it is a list of JSON numbers (ndim 1) or a
    list of such lists (ndim 2); an entry that ``json_float`` would reject
    raises TypeError.  A list's entry types are read in one scan at C speed.
    A list of lists, such as a support of many rows, is read by numpy first:
    it refuses ragged rows, its dtype and shape reject strings, nulls,
    objects and rows nested too deep or not deep enough, and a bool among
    numbers turns into 0 or 1, so the entry types are read only when some
    entry equals 0 or 1."""
    value = d[key]
    ok = isinstance(value, list)
    if ok and ndim == 1:
        ok = set(map(type, value)) <= {int, float}
        array = np.array(value, dtype=float) if ok else None
    elif ok:
        try:
            array = np.array(value)
        except ValueError:
            array = None
        ok = array is not None and array.ndim == 2 and array.dtype.kind in "if"
        if ok and np.any((array == 0) | (array == 1)):
            ok = set(map(type, itertools.chain.from_iterable(value))) <= {int, float}
    if not ok:
        raise TypeError(f"{key} must be a {'list of lists' if ndim == 2 else 'list'} of numbers")
    return array.astype(float, copy=False)


def uniform_mass(n: int) -> np.ndarray:
    """n masses of 1/n, the law a discrete component's JSON implies when it
    has no mass field."""
    return np.full(n, 1.0 / n)


def check_format_version(d: dict) -> None:
    """Raise ValueError unless d's format_version, where present, is the
    JSON integer 1."""
    if "format_version" in d and json_int(d, "format_version") != 1:
        raise ValueError(f"unsupported format_version {d['format_version']}")


# Bump the tag whenever the hashed parts change, so that fingerprints of
# different layouts never meet.
_FINGERPRINT_TAG = b"mmdt-model-v2"


def array_fingerprint(*parts) -> str:
    """sha256 hex digest of the versioned tag and then parts in order: a str
    (a component kind, a kernel profile) as its length and UTF-8 bytes, any
    other part as a float64 array's shape and little-endian bytes.  Hashing
    lengths and shapes keeps apart parts whose bytes run together alike."""
    digest = hashlib.sha256(_FINGERPRINT_TAG)
    for part in parts:
        if isinstance(part, str):
            data = part.encode("utf-8")
            digest.update(f"s{len(data)}:".encode() + data)
        else:
            arr = np.asarray(part, dtype="<f8", order="C")
            digest.update(f"a{arr.shape}:".encode())
            digest.update(arr)
    return digest.hexdigest()


def lowest_duplicate_pair(rows: np.ndarray) -> tuple[int, int] | None:
    """The lowest index pair (a, b), a < b, of equal rows (-0.0 equals 0.0), or None."""
    _, first, inverse = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    owner = first[inverse.ravel()]  # owner[j]: lowest index with the row of j
    dup = np.flatnonzero(owner != np.arange(len(rows)))
    if not dup.size:
        return None
    b = int(dup[np.argmin(owner[dup])])  # the lowest owner, then its next index
    return int(owner[b]), b


@dataclass(frozen=True)
class Component:
    """One mixture component: a diagonal Gaussian or a finite discrete law.

    Gaussian components carry per-axis standard deviations; discrete
    components carry support points and probability masses.  The stored mean
    must equal the distribution mean (checked to 1e-9 for discrete ones).
    """

    kind: str
    mean: np.ndarray
    stddev: np.ndarray | None = None
    support: np.ndarray | None = None
    mass: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "mean", _as_float_array(self.mean, "mean", 1))
        if self.kind == GAUSSIAN:
            if self.stddev is None:
                raise ValidationError("gaussian-diagonal component needs stddev")
            std = _as_float_array(self.stddev, "stddev", 1)
            if std.shape != self.mean.shape:
                raise ValidationError("stddev and mean dimensions differ")
            if np.any(std <= 0):
                raise ValidationError("gaussian stddev must be strictly positive")
            object.__setattr__(self, "stddev", std)
        elif self.kind == DISCRETE:
            if self.support is None or self.mass is None:
                raise ValidationError("finite-discrete component needs support and mass")
            sup = _as_float_array(self.support, "support", 2)
            mass = _as_float_array(self.mass, "mass", 1)
            if sup.shape[0] != mass.shape[0] or sup.shape[0] == 0:
                raise ValidationError("support and mass sizes differ or are empty")
            if sup.shape[1] != self.mean.shape[0]:
                raise ValidationError("support dimension does not match mean")
            if np.any(mass <= 0):
                raise ValidationError("all masses must be positive")
            if abs(mass.sum() - 1.0) > _MASS_TOL:
                raise ValidationError(f"masses sum to {float(mass.sum())}, expected 1")
            implied = mass @ sup
            if np.max(np.abs(implied - self.mean)) > _MASS_TOL:
                raise ValidationError("mean field does not match mass-weighted support average")
            object.__setattr__(self, "support", sup)
            object.__setattr__(self, "mass", mass)
        else:
            raise ValidationError(f"unknown component kind {self.kind!r}")

    @staticmethod
    def gaussian(mean, stddev) -> "Component":
        return Component(kind=GAUSSIAN, mean=mean, stddev=stddev)

    @staticmethod
    def discrete(support, mass, mean=None) -> "Component":
        support = np.asarray(support, dtype=float)
        mass = np.asarray(mass, dtype=float)
        if mean is None:
            mean = mass @ support
        return Component(kind=DISCRETE, mean=mean, support=support, mass=mass)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def variances(self) -> np.ndarray:
        """Per-axis variance of the component (floored)."""
        return np.maximum(self.abs_moments()[1], VARIANCE_FLOOR)

    def abs_moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-axis (E|x - mean|, E|x - mean|^2), exact for both kinds."""
        if self.kind == GAUSSIAN:
            first = self.stddev * np.sqrt(2.0 / np.pi)
            second = self.stddev**2
        else:
            dev = np.abs(self.support - self.mean)
            first = self.mass @ dev
            second = self.mass @ dev**2
        return first, second

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.kind == GAUSSIAN:
            return self.mean + self.stddev * rng.standard_normal((n, self.dim))
        idx = rng.choice(self.support.shape[0], size=n, p=self.mass)
        return self.support[idx]

    def to_dict(self) -> dict:
        """The component's JSON fields; a mass of exactly 1/n on each of n
        support points is left out, and ``from_dict`` restores it."""
        out: dict = {"kind": self.kind, "mean": self.mean.tolist()}
        if self.kind == GAUSSIAN:
            out["stddev"] = self.stddev.tolist()
        else:
            out["support"] = self.support.tolist()
            if not np.all(self.mass == uniform_mass(len(self.mass))):
                out["mass"] = self.mass.tolist()
        return out

    @staticmethod
    def from_dict(d: dict) -> "Component":
        kind = d.get("kind")
        if kind == GAUSSIAN:
            return Component(kind=GAUSSIAN, mean=json_floats(d, "mean"), stddev=json_floats(d, "stddev"))
        if kind == DISCRETE:
            mean, support = json_floats(d, "mean"), json_floats(d, "support", ndim=2)
            # only an absent mass is uniform: a present one, even null, is read and checked
            mass = json_floats(d, "mass") if "mass" in d else uniform_mass(support.shape[0])
            return Component(kind=DISCRETE, mean=mean, support=support, mass=mass)
        raise ValidationError(f"unknown component kind {kind!r}")


@dataclass(frozen=True)
class MixtureModel:
    """K weighted components plus per-axis noise scales sigma and cap alpha.

    Invariants: weights sum to one, every weight respects p_k <= alpha / K,
    sigma > 0 per axis, and component means are pairwise distinct.  A single
    component is allowed for sampling/fitting; operations that require at
    least two components reject it themselves.
    """

    components: tuple[Component, ...]
    weights: np.ndarray
    sigma: np.ndarray
    alpha: float

    def __post_init__(self):
        comps = tuple(self.components)
        if len(comps) < 1:
            raise ValidationError("need at least one component")
        d = comps[0].dim
        if any(c.dim != d for c in comps):
            raise ValidationError("components have inconsistent dimensions")
        w = _as_float_array(self.weights, "weights", 1)
        if w.shape[0] != len(comps):
            raise ValidationError("weights length does not match component count")
        if np.any(w <= 0):
            raise ValidationError("weights must be positive")
        if abs(w.sum() - 1.0) > _MASS_TOL:
            raise ValidationError(f"weights sum to {float(w.sum())}, expected 1")
        if not np.isfinite(self.alpha) or self.alpha < 1.0:
            raise ValidationError("alpha must be a real >= 1")
        k = len(comps)
        if np.any(w > self.alpha / k + 1e-9):
            raise ValidationError("some weight exceeds alpha / K")
        sig = _as_float_array(self.sigma, "sigma", 1)
        if sig.shape[0] != d:
            raise ValidationError("sigma dimension does not match components")
        if np.any(sig <= 0):
            raise ValidationError("sigma must be strictly positive")
        means = np.array([c.mean for c in comps])
        dup = lowest_duplicate_pair(means)
        if dup:
            raise ValidationError(f"components {dup[0]} and {dup[1]} share the same mean")
        means.setflags(write=False)
        object.__setattr__(self, "_means", means)
        stddevs = np.array([c.stddev if c.kind == GAUSSIAN else np.full(d, np.nan) for c in comps])
        stddevs.setflags(write=False)
        object.__setattr__(self, "_stddevs", stddevs)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "sigma", sig)
        object.__setattr__(self, "alpha", float(self.alpha))

    @staticmethod
    def create(components, weights, alpha: float | None = None, sigma=None) -> "MixtureModel":
        """Build a model, deriving sigma (pooled within-component std) and
        alpha (K * max weight) when not supplied."""
        comps = tuple(components)
        w = np.asarray(weights, dtype=float)
        if sigma is None:
            pooled = np.zeros(comps[0].dim)
            for c, p in zip(comps, w):
                pooled += p * c.variances()
            sigma = np.sqrt(np.maximum(pooled, VARIANCE_FLOOR))
        if alpha is None:
            alpha = max(1.0, len(comps) * float(np.max(w)))
        return MixtureModel(components=comps, weights=w, sigma=sigma, alpha=alpha)

    @property
    def k(self) -> int:
        return len(self.components)

    @property
    def dim(self) -> int:
        return self.components[0].dim

    def means(self) -> np.ndarray:
        """Component means as a read-only (K, d) array, built once; a caller
        that writes to it copies it first."""
        return self._means

    def stddevs(self) -> np.ndarray:
        """Gaussian component stddevs as a read-only (K, d) array, built
        once; the rows of other kinds are NaN."""
        return self._stddevs

    def all_discrete(self) -> bool:
        return all(c.kind == DISCRETE for c in self.components)

    def all_gaussian(self) -> bool:
        return all(c.kind == GAUSSIAN for c in self.components)

    def to_dict(self) -> dict:
        return {
            "format_version": 1,
            "dim": self.dim,
            "alpha": self.alpha,
            "weights": self.weights.tolist(),
            "sigma": self.sigma.tolist(),
            "components": [c.to_dict() for c in self.components],
        }

    @staticmethod
    def from_dict(d: dict) -> "MixtureModel":
        check_format_version(d)
        comps = tuple(Component.from_dict(c) for c in d["components"])
        sigma = json_floats(d, "sigma") if "sigma" in d else None
        alpha = json_float(d, "alpha") if "alpha" in d else None
        model = MixtureModel.create(comps, json_floats(d, "weights"), alpha=alpha, sigma=sigma)
        if "dim" in d and json_int(d, "dim") != model.dim:
            raise ValidationError(f"declared dim {d['dim']} does not match components")
        return model

    def fingerprint(self) -> str:
        """array_fingerprint of alpha, weights, sigma and each component's
        kind and arrays, in component order."""
        parts = [self.alpha, self.weights, self.sigma]
        for c in self.components:
            parts += [c.kind, c.mean] + ([c.stddev] if c.kind == GAUSSIAN else [c.support, c.mass])
        return array_fingerprint(*parts)


@dataclass(frozen=True)
class LabeledDataset:
    """N x d points with optional integer component labels (0-based)."""

    points: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        pts = _as_float_array(self.points, "points", 2)
        if pts.shape[0] < 1:
            raise ValidationError("dataset needs at least one row")
        object.__setattr__(self, "points", pts)
        if self.labels is not None:
            lab = np.asarray(self.labels, dtype=int)
            if lab.shape != (pts.shape[0],):
                raise ValidationError("labels length does not match points")
            if np.any(lab < 0):
                raise ValidationError("labels must be non-negative component indices")
            lab = lab.copy()
            lab.setflags(write=False)
            object.__setattr__(self, "labels", lab)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def _pair_gaps(model: MixtureModel):
    """Per component a < K - 1, its (K - 1 - a, d) squared mean gaps to
    every b > a over the axis variances: the pairs a < b in lexicographic
    order, one row of pairs at a time so memory stays O(K d)."""
    if model.k < 2:
        raise ValidationError("need at least two components")
    means, inv = model.means(), 1.0 / model.sigma**2
    return ((means[a] - means[a + 1 :]) ** 2 * inv for a in range(model.k - 1))


def enr(model: MixtureModel) -> float:
    """Explainability-to-noise ratio: min over component pairs of the max
    per-axis squared mean gap divided by the axis variance."""
    return float(min(gaps.max(axis=1).min() for gaps in _pair_gaps(model)))


def sample(model: MixtureModel, n: int, seed: int) -> LabeledDataset:
    """Draw n labeled points; bit-identical output for identical inputs."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    rng = np.random.default_rng(seed)
    labels = rng.choice(model.k, size=n, p=model.weights)
    points = np.empty((n, model.dim))
    for k, comp in enumerate(model.components):
        mask = labels == k
        cnt = int(mask.sum())
        if cnt:
            points[mask] = comp.sample(rng, cnt)
    return LabeledDataset(points=points, labels=labels)


def squared_distances(
    columns: np.ndarray, center: np.ndarray, out: np.ndarray, work: np.ndarray, scale: np.ndarray | None = None
) -> np.ndarray:
    """Squared l2 distance from center of every point whose coordinates are
    the rows of columns (d, n), into out, with work as a spare buffer; with
    scale, each axis's squares are first multiplied by its factor.  The
    squares are added axis by axis from the first, one contiguous column at
    a time.  numpy's row sum over (n, d) adds them in this order for d < 8
    and pairwise from d = 8, where the two may differ in the last bits."""
    for j, (column, c) in enumerate(zip(columns, center)):
        sq = np.square(np.subtract(column, c, out=work), out=work if j else out)
        if scale is not None:
            sq *= scale[j]
        if j:
            out += sq
    return out


def _e_step(
    columns: np.ndarray, means: np.ndarray, variances: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-point log mixture density (n,) and responsibilities (K, n) of the
    points in columns (d, n), both from one max-shifted exp.  Each component's
    log density row starts as its squared distances scaled by 1 / variance."""
    d, n = columns.shape
    resp, work = np.empty((means.shape[0], n)), np.empty(n)
    for row, mean, variance in zip(resp, means, variances):
        squared_distances(columns, mean, row, work, scale=1.0 / variance)
    resp += d * np.log(2.0 * np.pi) + np.log(variances).sum(axis=1)[:, None]
    resp *= -0.5
    resp += np.log(weights)[:, None]
    shift = resp.max(axis=0, out=work)
    resp -= shift
    np.exp(resp, out=resp)
    total = resp.sum(axis=0)
    resp /= total
    return np.add(shift, np.log(total, out=total), out=total), resp


def _m_step(
    columns: np.ndarray, resp: np.ndarray, nk: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weights, means and floored variances from responsibilities (K, n) with
    row sums nk.  Variances use centered squares: the raw second moment
    minus the squared mean loses precision to cancellation far from 0.  Each
    is a numpy multiply and sum: K d threaded BLAS dots stalled on a busy core."""
    means = (resp @ columns.T) / nk[:, None]
    variances, work = np.empty_like(means), np.empty(columns.shape[1])
    for k, j in np.ndindex(variances.shape):
        sq = np.square(np.subtract(columns[j], means[k, j], out=work), out=work)
        variances[k, j] = np.multiply(sq, resp[k], out=sq).sum()
    return nk / columns.shape[1], means, np.maximum(variances / nk[:, None], VARIANCE_FLOOR)


def _farthest_point_seeds(columns: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k seed points (k, d) of columns (d, n): a random first one, then each
    time the first point farthest from all seeds so far."""
    n = columns.shape[1]
    d2, dist, work = np.full(n, np.inf), np.empty(n), np.empty(n)
    chosen = [int(rng.integers(n))]
    for _ in range(1, k):
        np.minimum(d2, squared_distances(columns, columns[:, chosen[-1]], dist, work), out=d2)
        chosen.append(int(np.argmax(d2)))
    return np.ascontiguousarray(columns[:, chosen].T)


def fit_gmm(
    data: LabeledDataset,
    k: int,
    seed: int = 0,
    max_iters: int = 200,
    tol: float = 1e-6,
    return_history: bool = False,
):
    """Diagonal-covariance EM on the data's (d, n) columns, transposed once.

    Means start from farthest-point seeding (first seed drawn from ``seed``),
    variances at unit scale.  Iterates until the total log-likelihood improves
    by less than ``tol`` or ``max_iters`` is hit.  Components that went
    empty are reseeded at the worst-explained points, one point each.  The
    log-likelihood trace is asserted non-decreasing except immediately after
    a reseed.
    """
    n, d = data.points.shape
    if k < 1:
        raise ValidationError("k must be >= 1")
    if n < k:
        raise ValidationError(f"need at least k={k} points, got {n}")
    columns = np.ascontiguousarray(data.points.T)
    means = _farthest_point_seeds(columns, k, np.random.default_rng(seed))
    variances = np.ones((k, d))
    weights = np.full(k, 1.0 / k)

    history: list[float] = []
    prev_ll = -np.inf  # also after a reseed: nothing to compare with
    for _ in range(max_iters):
        log_norm, resp = _e_step(columns, means, variances, weights)
        ll = float(log_norm.sum())
        if np.isfinite(prev_ll):
            assert ll >= prev_ll - 1e-7 * max(1.0, abs(prev_ll)), "EM log-likelihood decreased"
        history.append(ll)
        if ll - prev_ll < tol and np.isfinite(prev_ll):
            break
        prev_ll = ll

        nk = resp.sum(axis=1)
        dead = np.flatnonzero(nk < 1e-10)
        if dead.size:
            # Reseed the j-th dead component at the j-th worst-explained point.
            means[dead] = columns[:, np.argsort(log_norm, kind="stable")[: dead.size]].T
            variances[dead] = np.maximum(columns.var(axis=1), VARIANCE_FLOOR)
            weights[dead] = 1.0 / n
            weights = weights / weights.sum()
            prev_ll = -np.inf
            continue

        weights, means, variances = _m_step(columns, resp, nk)

    comps = tuple(Component.gaussian(means[j], np.sqrt(variances[j])) for j in range(k))
    model = MixtureModel.create(comps, weights)
    if return_history:
        return model, history
    return model


def empirical_moments(data: LabeledDataset, k: int) -> MixtureModel:
    """Ground-truth-label path: per-label discrete components with uniform
    mass, weights from label frequencies, sigma pooled within components
    by ``MixtureModel.create``."""
    if data.labels is None:
        raise ValidationError("empirical_moments requires labels")
    if k < 1:
        raise ValidationError("k must be >= 1")
    top = int(data.labels.max())
    if top >= k:
        raise ValidationError(f"label {top} is not a component index below k={k}")
    comps = []
    weights = []
    n = data.n
    for label in range(k):
        rows = data.points[data.labels == label]
        if rows.shape[0] == 0:
            raise ValidationError(f"label class {label} has no points")
        # Shuffle-invariant support order.
        order = np.lexsort(rows.T[::-1])
        rows = rows[order]
        comps.append(Component.discrete(rows, uniform_mass(rows.shape[0])))
        weights.append(rows.shape[0] / n)
    return MixtureModel.create(tuple(comps), np.array(weights))
