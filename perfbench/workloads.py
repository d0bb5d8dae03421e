"""The four benchmark workloads: input generation, CLI chains and oracles.

Inputs are drawn with numpy from the workload seed alone, before the worker
starts, so the program under test sees only the generated files and no
change to it can alter its own inputs.  A workload's ``steps(i)`` is the
chain of ``mmdt`` CLI calls that make up op ``i``; ``check(key, reports)``
is the oracle, run after the timed window on the artifacts of the ops that
share ``key``.  The ``mmdt`` package is imported lazily, inside the worker
and the oracles, never at module import.
"""

from __future__ import annotations

import json
from itertools import permutations
from pathlib import Path

import numpy as np

# MC error rate vs the closed-form Gaussian error rate of the same tree: the
# tolerance is five binomial standard errors plus an absolute floor.
MC_ERROR_SIGMAS = 5.0
MC_ERROR_FLOOR = 1e-4
# Fitted means must lie within this many truth stddevs of their matched truth
# mean (per axis); 20k points per component give a standard error of ~0.007.
MEAN_MATCH_STDS = 0.05
# Two exact evaluations of the same empirical law differ only by rounding.
EXACT_TOL = 1e-9
# The program's own seed (``--seed`` of fit-gmm, build-kernel and eval) is
# the same for every workload seed, which varies only the input files.  With
# the workload seed as MC seed, the per-component sample counts, and so the
# array sizes, changed between seeds; on identical element counts that moved
# kernel-price's op time by 7% (numpy asks for huge pages for large arrays,
# and what it gets depends on the sizes).
PROGRAM_SEED = "1"


def _write_csv(path: Path, points: np.ndarray, labels: np.ndarray) -> None:
    d = points.shape[1]
    header = ",".join([f"x{j + 1}" for j in range(d)] + ["label"])
    table = np.column_stack([points, labels])
    fmt = ["%.12g"] * d + ["%d"]
    np.savetxt(path, table, fmt=fmt, delimiter=",", header=header, comments="")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _gaussian_mixture(means: np.ndarray, stds: np.ndarray, weights: np.ndarray) -> dict:
    k, d = means.shape
    return {
        "format_version": 1,
        "dim": d,
        "alpha": float(k * weights.max()),
        "weights": weights.tolist(),
        "components": [
            {"kind": "gaussian-diagonal", "mean": means[j].tolist(), "stddev": stds[j].tolist()}
            for j in range(k)
        ],
    }


def _separated_means(rng: np.random.Generator, k: int, d: int, box: float, min_dist: float):
    """Means uniform in [-box, box]^d, redrawn one at a time until every
    pair is at least ``min_dist`` apart."""
    means = []
    while len(means) < k:
        cand = rng.uniform(-box, box, d)
        if all(np.linalg.norm(cand - m) >= min_dist for m in means):
            means.append(cand)
    return np.array(means)


def _line_means(rng: np.random.Generator, k: int, d: int, spacing: float, jitter: float):
    """Means evenly spaced along one axis drawn from the seed, in random
    order, with small uniform offsets on the other axes.  Every split of the
    tree then falls on that axis, so the work and memory of a build and of
    routing do not depend on where the seed happens to put the means."""
    means = rng.uniform(-jitter, jitter, (k, d))
    means[:, rng.integers(d)] = spacing * (rng.permutation(k) - (k - 1) / 2)
    return means


def _labeled_sample(rng, means, stds, n, mislabeled: float = 0.0):
    """Balanced labels in random order; points from diagonal Gaussians.  A
    ``mislabeled`` share of the rows is drawn from the next component but
    keeps its label."""
    k = means.shape[0]
    labels = rng.permutation(np.arange(n) % k)
    source = labels.copy()
    swap = rng.permutation(n)[: int(round(mislabeled * n))]
    source[swap] = (source[swap] + 1) % k
    points = means[source] + stds[source] * rng.standard_normal((n, means.shape[1]))
    return points, labels


class Workload:
    """Base: ``generate`` writes inputs, ``prepare`` runs untimed in the
    worker, ``steps`` lists the op's CLI calls as (argv, artifact files);
    ``key(i)`` is one of ``keys`` input sets, cycled through by the ops."""

    name = ""
    why = ""
    keys = 1

    def __init__(self, work: Path, seed: int):
        self.work = Path(work)
        self.seed = seed
        self.sizes: dict = {}

    def p(self, name: str) -> str:
        return str(self.work / name)

    def generate(self) -> dict:
        raise NotImplementedError

    def prepare(self, main) -> None:
        """Untimed set-up in the worker; ``main`` is ``mmdt.cli.main``."""

    def key(self, i: int) -> int:
        return i % self.keys

    def steps(self, i: int) -> list[tuple[list[str], list[str]]]:
        raise NotImplementedError

    def check(self, key: int, reports: dict[int, str]) -> list[str]:
        """Oracle failures for the artifacts of ``key``; ``reports`` maps a
        step index to that step's captured stdout."""
        raise NotImplementedError


class DataChain(Workload):
    name = "data-chain"
    why = "the ROADMAP end-to-end chain fit-gmm, build, eval, eval-data, baseline-imm on a 100k-row CSV; n-bound, tree build under 1%"
    n, k, d = 100_000, 5, 4

    def generate(self) -> dict:
        rng = np.random.default_rng([self.seed, 1])
        means = _separated_means(rng, self.k, self.d, box=10.0, min_dist=12.0)
        stds = rng.uniform(0.8, 1.2, (self.k, self.d))
        points, labels = _labeled_sample(rng, means, stds, self.n)
        _write_csv(self.work / "data.csv", points, labels)
        _write_json(self.work / "centers.json", {"format_version": 1, "centers": means.tolist()})
        _write_json(
            self.work / "truth.json", _gaussian_mixture(means, stds, np.full(self.k, 1.0 / self.k))
        )
        self.sizes = {"n": self.n, "K": self.k, "d": self.d}
        return self.sizes

    def steps(self, i):
        s = PROGRAM_SEED
        return [
            (["fit-gmm", "--data", self.p("data.csv"), "--k", str(self.k), "--seed", s,
              "--out", self.p("fitted.json")], ["fitted.json"]),
            (["build", "--mixture", self.p("fitted.json"), "--objective", "gaussian",
              "--out", self.p("tree.json")], ["tree.json"]),
            (["eval", "--mixture", self.p("fitted.json"), "--tree", self.p("tree.json"),
              "--json", "--seed", s], []),
            (["eval-data", "--data", self.p("data.csv"), "--tree", self.p("tree.json"),
              "--mixture", self.p("fitted.json"), "--json"], []),
            (["baseline-imm", "--data", self.p("data.csv"), "--centers", self.p("centers.json"),
              "--out", self.p("imm.json")], ["imm.json"]),
        ]

    def check(self, key, reports):
        from mmdt import evaluate, io, tree

        fitted = io.load_mixture(self.p("fitted.json"))
        truth = io.load_mixture(self.p("truth.json"))
        built = io.load_tree(self.p("tree.json"))
        failures = []
        try:
            tree.check_structure(built, fitted.means())
        except Exception as exc:  # any invariant breach is an oracle failure
            failures.append(f"tree.check_structure: {exc}")
        exact = evaluate.exact_error_rate_gaussian(fitted, built)
        mc = json.loads(reports[2])
        n = mc["mc_samples"]
        tol = MC_ERROR_SIGMAS * np.sqrt(max(exact * (1 - exact), 0.0) / n) + MC_ERROR_FLOOR
        if abs(mc["error_rate"] - exact) > tol:
            failures.append(f"MC error_rate {mc['error_rate']} vs exact {exact} (tol {tol:.2g})")
        fm, tm = fitted.means(), truth.means()
        tstd = np.array([c.stddev for c in truth.components])
        best = min(
            (np.max(np.abs(fm[list(perm)] - tm) / tstd), perm)
            for perm in permutations(range(self.k))
        )
        if best[0] > MEAN_MATCH_STDS:
            failures.append(f"fitted means off the truth by {best[0]:.3g} stddevs")
        imm = io.load_tree(self.p("imm.json"))
        try:
            tree.check_structure(imm, io.load_centers(self.p("centers.json")))
        except Exception as exc:
            failures.append(f"IMM tree.check_structure: {exc}")
        return failures


class WideBuild(Workload):
    name = "wide-build"
    why = "the paper's headline path, independent of n: build on K=100, d=50 Gaussian mixtures, chebyshev and gaussian; no data layer runs"
    k, d, keys = 100, 50, 4
    # Means uniform in a box 60 stddevs wide: the work of a build (sum of
    # node sizes plus tied brackets) then varies by about 5% between draws.
    # In a box of 20 the chebyshev trees range from balanced to caterpillar
    # and build time by a factor of four, which no run length averages out.
    box = 30.0

    def generate(self) -> dict:
        rng = np.random.default_rng([self.seed, 2])
        for m in range(self.keys):
            means = rng.uniform(-self.box, self.box, (self.k, self.d))
            stds = rng.uniform(0.5, 1.5, (self.k, self.d))
            w = rng.uniform(0.5, 1.5, self.k)
            _write_json(self.work / f"mix{m}.json", _gaussian_mixture(means, stds, w / w.sum()))
        self.sizes = {"K": self.k, "d": self.d, "pool": self.keys}
        return self.sizes

    def steps(self, i):
        m = self.key(i)
        return [
            (["build", "--mixture", self.p(f"mix{m}.json"), "--objective", obj,
              "--out", self.p(f"tree{m}-{obj}.json")], [f"tree{m}-{obj}.json"])
            for obj in ("chebyshev", "gaussian")
        ]

    def check(self, key, reports):
        from mmdt import io, tree

        means = io.load_mixture(self.p(f"mix{key}.json")).means()
        failures = []
        for obj in ("chebyshev", "gaussian"):
            try:
                tree.check_structure(io.load_tree(self.p(f"tree{key}-{obj}.json")), means)
            except Exception as exc:
                failures.append(f"mix{key} {obj}: tree.check_structure: {exc}")
        return failures


class DiscreteExact(Workload):
    name = "discrete-exact"
    why = "exact-discrete build on a 13.5k-point empirical law: the candidates x support matrix sets time and peak memory; large mixture JSON I/O"
    # The root's boolean candidates x support matrices are then ~40 MB,
    # clear of glibc's 32 MiB mmap threshold; at 12k they straddle it and
    # peak RSS jumps by 30 MB between seeds.
    n, k, d = 13_500, 3, 4

    def generate(self) -> dict:
        rng = np.random.default_rng([self.seed, 3])
        means = _line_means(rng, self.k, self.d, spacing=3.0, jitter=0.3)
        stds = rng.uniform(0.9, 1.1, (self.k, self.d))
        points, labels = _labeled_sample(rng, means, stds, self.n)
        _write_csv(self.work / "data.csv", points, labels)
        self.sizes = {"S": self.n, "K": self.k, "d": self.d}
        return self.sizes

    def steps(self, i):
        return [
            (["moments", "--data", self.p("data.csv"), "--k", str(self.k),
              "--out", self.p("moments.json")], ["moments.json"]),
            (["build", "--mixture", self.p("moments.json"), "--objective", "exact-discrete",
              "--out", self.p("tree.json")], ["tree.json"]),
            (["eval", "--mixture", self.p("moments.json"), "--tree", self.p("tree.json"),
              "--json", "--seed", PROGRAM_SEED], []),
            (["eval-data", "--data", self.p("data.csv"), "--tree", self.p("tree.json"),
              "--mixture", self.p("moments.json"), "--json"], []),
        ]

    def check(self, key, reports):
        from mmdt import io, tree

        failures = []
        try:
            tree.check_structure(
                io.load_tree(self.p("tree.json")), io.load_mixture(self.p("moments.json")).means()
            )
        except Exception as exc:
            failures.append(f"tree.check_structure: {exc}")
        exact = json.loads(reports[2])["error_rate"]
        on_data = json.loads(reports[3])["error_vs_labels"]
        if abs(exact - on_data) > EXACT_TOL:
            failures.append(f"exact error_rate {exact} != eval-data error_vs_labels {on_data}")
        return failures


class KernelPrice(Workload):
    name = "kernel-price"
    why = "kernel tree build and price, exact on a 3k-point empirical law and MC on a K=5 Gaussian: Gram evaluation dominates; no other workload runs the kernel layer"
    n, k, d = 3_000, 3, 2
    mc_k, mc_d, mc_samples = 5, 4, 4000

    def generate(self) -> dict:
        rng = np.random.default_rng([self.seed, 4])
        # Neighbours 11 stddevs apart, so routing, leaf sizes and memory do
        # not depend on the sampled prototypes.  The mislabeled 0.1% of rows
        # are misrouted, so the oracle compares two non-zero error rates.  A
        # mislabeled row lies in another component's cluster; when it is
        # drawn as a node's prototype, the cut sends two components to one
        # side and the tree's error jumps to about 2/3.  At 2% mislabeled
        # that happened on 1 seed in 16 and doubled peak RSS; at 0.1% the
        # chance is about 0.2% per seed.
        means = _line_means(rng, self.k, self.d, spacing=1.7, jitter=0.2)
        stds = rng.uniform(0.13, 0.17, (self.k, self.d))
        points, labels = _labeled_sample(rng, means, stds, self.n, mislabeled=0.001)
        _write_csv(self.work / "data.csv", points, labels)
        # Neighbours 25 stddevs apart: MC rows land in their own leaf, so
        # leaf sizes, and the leaf Gram matrices, are the same for every seed.
        means = _line_means(rng, self.mc_k, self.mc_d, spacing=2.5, jitter=0.2)
        stds = rng.uniform(0.08, 0.12, (self.mc_k, self.mc_d))
        _write_json(
            self.work / "gauss.json", _gaussian_mixture(means, stds, np.full(self.mc_k, 0.2))
        )
        self.sizes = {
            "exact": {"S": self.n, "K": self.k, "d": self.d},
            "mc": {"K": self.mc_k, "d": self.mc_d, "samples": self.mc_samples},
        }
        return self.sizes

    def prepare(self, main):
        argv = ["moments", "--data", self.p("data.csv"), "--k", str(self.k),
                "--out", self.p("moments.json")]
        if main(argv) != 0:
            raise RuntimeError("moments failed while preparing kernel-price")

    def steps(self, i):
        s = PROGRAM_SEED
        return [
            (["build-kernel", "--mixture", self.p("moments.json"), "--mode", "exact",
              "--seed", s, "--out", self.p("ktree-exact.json")], ["ktree-exact.json"]),
            (["eval", "--mixture", self.p("moments.json"), "--tree", self.p("ktree-exact.json"),
              "--json", "--seed", s], []),
            (["build-kernel", "--mixture", self.p("gauss.json"), "--mode", "mc",
              "--seed", s, "--out", self.p("ktree-mc.json")], ["ktree-mc.json"]),
            (["eval", "--mixture", self.p("gauss.json"), "--tree", self.p("ktree-mc.json"),
              "--samples", str(self.mc_samples), "--json", "--seed", s], []),
        ]

    def check(self, key, reports):
        from mmdt import io, kernel

        model = io.load_mixture(self.p("moments.json"))
        ktree = io.load_tree(self.p("ktree-exact.json"))
        misrouted = 0.0
        for k, comp in enumerate(model.components):
            routed = np.array([kernel.interval_predict(ktree, x) for x in comp.support])
            misrouted += model.weights[k] * float(comp.mass @ (routed != k))
        exact = json.loads(reports[1])["error_rate"]
        failures = []
        if abs(exact - misrouted) > EXACT_TOL:
            failures.append(f"kernel error_rate {exact} != interval_predict misrouting {misrouted}")
        mc = json.loads(reports[3])
        if not 0.0 <= mc["error_rate"] <= 1.0 or mc["mc_samples"] != self.mc_samples:
            failures.append(f"MC kernel report out of range: {mc}")
        return failures


WORKLOADS = {w.name: w for w in (DataChain, WideBuild, DiscreteExact, KernelPrice)}
