"""Oracles and writers that only the tests use: two mixture statistics, the
dataset and centers writers, the canonical trees and exhaustive tree
enumerator of the hard instances, the bisection that the threshold search's
roots are checked against, the list of thresholds that moved between two
trees, and the per-pair loop of the kernel statistics."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from mmdt import AdversarialInstance, KernelSpec, LabeledDataset, MixtureModel, ValidationError
from mmdt.io import save_json, write_text
from mmdt.kernel import _atom_grams, _atoms
from mmdt.mixture import _e_step, _pair_gaps
from mmdt.tree import _MAX_PROBES, AxisCut, AxisTree, TreeNode, _midpoint_candidates


def snr(model: MixtureModel) -> float:
    """Signal-to-noise ratio: min over pairs of the variance-weighted squared
    distance between means, summed over axes."""
    return float(min(gaps.sum(axis=1).min() for gaps in _pair_gaps(model)))


def log_likelihood(model: MixtureModel, data: LabeledDataset) -> float:
    """Total log-likelihood of a Gaussian model on a dataset."""
    if not model.all_gaussian():
        raise ValidationError("log_likelihood requires gaussian components")
    variances = model.stddevs() ** 2
    log_norm, _ = _e_step(np.ascontiguousarray(data.points.T), model.means(), variances, model.weights)
    return float(log_norm.sum())


def save_dataset(path, data: LabeledDataset) -> None:
    """Write the dataset CSV, each float in its shortest round-trip form
    (repr), so that it loads back bit for bit; one %-format fills every row."""
    header = [f"x{j + 1}" for j in range(data.dim)]
    fields = ["%r"] * data.dim
    table = data.points
    if data.labels is not None:
        header.append("label")
        fields.append("%d")
        table = np.column_stack([table, data.labels])
    row = ",".join(fields) + "\n"
    write_text(path, ",".join(header) + "\n" + (row * data.n) % tuple(table.ravel().tolist()))


def save_centers(path, centers: np.ndarray) -> None:
    save_json(path, {"format_version": 1, "centers": np.asarray(centers, dtype=float).tolist()})


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

    return AxisTree(root=grow(0), dim=k, model_fingerprint=instance.model.fingerprint())


def b3_canonical_tree(instance: AdversarialInstance) -> AxisTree:
    """Root cut x_1 <= 0; the positive component sits in the right leaf."""
    if instance.construction != "b3-constprice":
        raise ValidationError("canonical tree is defined for b3-constprice instances")
    d = instance.params["d"]
    root = TreeNode(cut=AxisCut(axis=0, theta=0.0), left=TreeNode(leaf=1), right=TreeNode(leaf=0))
    return AxisTree(root=root, dim=d, model_fingerprint=instance.model.fingerprint())


def enumerate_valid_trees(model: MixtureModel, max_support: int = 200, max_k: int = 3) -> Iterator[AxisTree]:
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
                        yield TreeNode(cut=AxisCut(axis=axis, theta=theta), left=left_node, right=right_node)

    for root in grow(list(range(model.k))):
        yield AxisTree(root=root, dim=model.dim, model_fingerprint=fingerprint)


def bisect_roots(slope, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int]:
    """Plain bisection on the sign of ``slope(t)[0]``: halve every bracket
    [a, b] at its midpoint, at most ``_MAX_PROBES`` times, until no
    float lies strictly inside any of them.  Returns the lower ends and the
    number of slope passes made."""
    passes = 0
    for _ in range(_MAX_PROBES):
        probe = 0.5 * (a + b)
        inside = (probe > a) & (probe < b)
        if not inside.any():
            break
        passes += 1
        up = slope(probe)[0] > 0
        b = np.where(inside & up, probe, b)
        a = np.where(inside & ~up, probe, a)
    return a, passes


def float_ordinal(x: float) -> int:
    """The position of x among the floats: consecutive floats differ by 1,
    and -0.0 and 0.0 share position 0."""
    bits = int(np.float64(x).view(np.int64))
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def moved_thresholds(old: dict, new: dict) -> list[tuple]:
    """(node path, axis, old theta, new theta, ulps) for every node where two
    trees differ, top down.  Each tree is its JSON dict or its root node's;
    a path spells the way from the root in L and R.  ulps counts the floats
    between the two thetas.  Where the axis moved, axis is (old, new) and
    ulps None; where a leaf or the shape moved, axis is "leaf", the thetas
    are the two nodes' leaves (None for an internal node) and ulps None, and
    the walk does not go below that node."""
    moved: list[tuple] = []

    def walk(a: dict, b: dict, path: str) -> None:
        if "leaf" in a or "leaf" in b:
            if a.get("leaf") != b.get("leaf"):
                moved.append((path, "leaf", a.get("leaf"), b.get("leaf"), None))
            return
        if a["axis"] != b["axis"]:
            moved.append((path, (a["axis"], b["axis"]), a["theta"], b["theta"], None))
        elif a["theta"] != b["theta"]:
            ulps = abs(float_ordinal(a["theta"]) - float_ordinal(b["theta"]))
            moved.append((path, a["axis"], a["theta"], b["theta"], ulps))
        walk(a["left"], b["left"], path + "L")
        walk(a["right"], b["right"], path + "R")

    walk(old.get("root", old), new.get("root", new), "")
    return moved


def pairwise_kernel_stats(model: MixtureModel, kernel: KernelSpec) -> tuple[np.ndarray, np.ndarray, float]:
    """(xi table, sigma2 per component, eps2) by one pass per component pair
    over whole Grams: every pair, Gaussian ones included, as a matrix
    between the two components' atoms, and every mean as mass_a @ G @ mass_b."""
    d, K = model.dim, model.k
    xi_table, sigma2_per, eps2 = np.empty((d, K, K)), np.empty(K), 0.0
    for k in range(K):
        for l in range(k, K):
            a, var_a, mass_a = _atoms(model.components[k])
            b, var_b, mass_b = _atoms(model.components[l])
            g, g2 = np.empty((2, mass_a.size, mass_b.size))
            full = np.ones_like(g)
            for i in range(d):
                _atom_grams(kernel, a.T, b.T, var_a + var_b, i, (1, 2), (g, g2))
                m = xi_table[i, k, l] = xi_table[i, l, k] = float(mass_a @ g @ mass_b)
                eps2 = max(eps2, float(mass_a @ g2 @ mass_b) - m**2)
                if k == l:
                    full *= g
            if k == l:
                sigma2_per[k] = float(mass_a @ full @ mass_b)
    return xi_table, sigma2_per, min(1.0, eps2)
