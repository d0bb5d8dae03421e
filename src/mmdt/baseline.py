"""Greedy mistake-minimizing baseline tree (IMM) over a centered dataset.

At every node the builder scans axis-aligned candidate cuts that separate at
least one pair of remaining reference centers and picks the one separating
the fewest points from their assigned center (ties: lowest axis, then lowest
threshold).  Candidate thresholds are midpoints between consecutive distinct
coordinates of the node's points, extended with midpoints between
consecutive center projections so a separating cut always exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .evaluate import _ratio
from .mixture import array_fingerprint, lowest_duplicate_pair, squared_distances
from .tree import AxisCut, AxisTree, TreeNode, assign_components, check_fits


@dataclass(frozen=True)
class CenteredDataset:
    """Points plus K reference centers; assignment is the nearest center in
    l2 with ties going to the lower index, computed from the two."""

    points: np.ndarray
    centers: np.ndarray
    assignment: np.ndarray = field(init=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        ctr = np.asarray(self.centers, dtype=float)
        if pts.ndim != 2 or ctr.ndim != 2 or pts.shape[1] != ctr.shape[1]:
            raise ValidationError("points and centers must be 2-D with matching dimension")
        if ctr.shape[0] == 0:
            raise ValidationError("need at least one center")
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(ctr))):
            raise ValidationError("points and centers must be finite")
        dup = lowest_duplicate_pair(ctr)
        if dup:
            raise ValidationError(f"centers {dup[0]} and {dup[1]} are duplicates")
        assign = nearest_center(pts, ctr)
        for arr in (pts, ctr, assign):
            arr.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "centers", ctr)
        object.__setattr__(self, "assignment", assign)

    @property
    def k(self) -> int:
        return self.centers.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def nearest_center(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Index of the closest center in l2, ties to the lower index.  Each
    center's squared distances are summed axis by axis from the first
    (``squared_distances``), and a point moves to a later center only when
    that one is strictly closer."""
    n = points.shape[0]
    columns = np.ascontiguousarray(points.T)
    dist, work = np.empty(n), np.empty(n)
    best = squared_distances(columns, centers[0], np.empty(n), work)
    assign = np.zeros(n, dtype=np.intp)
    closer = np.empty(n, dtype=bool)
    for k in range(1, centers.shape[0]):
        np.less(squared_distances(columns, centers[k], dist, work), best, out=closer)
        np.copyto(best, dist, where=closer)
        np.copyto(assign, k, where=closer)
    return assign


def _best_cut(
    points: np.ndarray, assign: np.ndarray, centers: np.ndarray, center_idx: list[int]
) -> tuple[int, float, int]:
    """Minimal-mistake cut over all candidate (axis, theta); returns
    (axis, theta, mistakes).  Points counted are those whose assigned center
    is still at the node.  Such a point is a mistake at theta exactly when
    lo <= theta < hi, with lo and hi the lesser and greater of its coordinate
    and its center's, so the count is #{lo <= theta} - #{hi <= theta}."""
    alive = np.isin(assign, center_idx)
    own = centers[assign[alive]]
    best: tuple[int, float, int] | None = None
    for axis in range(points.shape[1]):
        c_proj = np.unique(centers[center_idx, axis])
        coords = np.unique(points[:, axis])
        cands = np.concatenate(
            (0.5 * (coords[:-1] + coords[1:]), 0.5 * (c_proj[:-1] + c_proj[1:]))
        )
        # A cut in [lowest, highest) center leaves a center on each side.
        cands = cands[(cands >= c_proj[0]) & (cands < c_proj[-1])]
        if cands.size == 0:
            continue
        x, c = points[alive, axis], own[:, axis]
        lo, hi = np.sort(np.minimum(x, c)), np.sort(np.maximum(x, c))
        mistakes = np.searchsorted(lo, cands, "right") - np.searchsorted(hi, cands, "right")
        fewest = int(mistakes.min())
        cand = (axis, float(cands[mistakes == fewest].min()), fewest)
        if best is None or (cand[2], cand[0], cand[1]) < (best[2], best[0], best[1]):
            best = cand
    if best is None:
        raise ValidationError("no candidate cut separates the remaining centers")
    return best


def build_imm(data: CenteredDataset) -> AxisTree:
    """Build the mistake-minimizing tree down to one center per leaf."""
    if data.k < 2:
        raise ValidationError("need at least two centers")

    def grow(point_idx: np.ndarray, center_idx: list[int], parent) -> TreeNode:
        if parent is not None:
            # A cut's mistake count is monotone non-increasing when
            # restricted to the points reaching a descendant node.
            p_axis, p_theta, p_centers, p_count = parent
            assert _cut_mistakes(data, point_idx, p_centers, p_axis, p_theta) <= p_count
        if len(center_idx) == 1:
            return TreeNode(leaf=center_idx[0])
        pts = data.points[point_idx]
        assign = data.assignment[point_idx]
        axis, theta, mistakes = _best_cut(pts, assign, data.centers, center_idx)
        assert mistakes <= len(point_idx)
        left_pts = point_idx[pts[:, axis] <= theta]
        right_pts = point_idx[pts[:, axis] > theta]
        left_centers = [k for k in center_idx if data.centers[k, axis] <= theta]
        right_centers = [k for k in center_idx if data.centers[k, axis] > theta]
        assert left_centers and right_centers
        here = (axis, theta, center_idx, mistakes)
        return TreeNode(
            cut=AxisCut(axis=axis, theta=theta),
            left=grow(left_pts, left_centers, here),
            right=grow(right_pts, right_centers, here),
        )

    root = grow(np.arange(data.points.shape[0]), list(range(data.k)), None)
    return AxisTree(root=root, dim=data.dim, model_fingerprint=array_fingerprint(data.centers))


def _cut_mistakes(
    data: CenteredDataset, point_idx: np.ndarray, center_idx: list[int], axis: int, theta: float
) -> int:
    """Points reaching a node, assigned to one of center_idx, that the cut
    puts on the other side from their center; reads the cut's axis only."""
    assign = data.assignment[point_idx]
    alive = np.isin(assign, center_idx)
    left = data.points[point_idx[alive], axis] <= theta
    return int(np.count_nonzero(left != (data.centers[:, axis] <= theta)[assign[alive]]))


def empirical_price(data: CenteredDataset, tree: AxisTree, norm: str = "l1") -> float:
    """Ratio of tree cost to baseline cost on the dataset.

    l1 uses coordinate-wise medians of leaf groups against medians of the
    assignment groups; l2sq uses means against means.  Empty groups cost
    nothing.  A zero baseline prices a zero-cost tree at 1 and any other
    at inf.
    """
    if norm not in ("l1", "l2sq"):
        raise ValidationError(f"norm must be 'l1' or 'l2sq', got {norm!r}")
    check_fits(tree, data.dim, data.k)
    leaf_of = assign_components(tree, data.points)
    stat = np.median if norm == "l1" else np.mean

    def group_cost(groups: np.ndarray) -> float:
        total = 0.0
        for g in range(data.k):
            rows = data.points[groups == g]
            if rows.shape[0] == 0:
                continue
            center = stat(rows, axis=0)
            if norm == "l1":
                total += float(np.abs(rows - center).sum())
            else:
                total += float(((rows - center) ** 2).sum())
        return total

    return _ratio(group_cost(leaf_of), group_cost(data.assignment))
