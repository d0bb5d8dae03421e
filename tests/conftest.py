"""Shared generators for seeded model batteries, a guard on numpy's settings,
and a report header naming the source under test."""

from __future__ import annotations

import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import mmdt
from mmdt import CenteredDataset, Component, KernelSpec, LabeledDataset, MixtureModel, enr
from mmdt.baseline import _cut_mistakes
from mmdt.mixture import GAUSSIAN

DATA_DIR = Path(__file__).parent / "data"


def pytest_report_header(config):
    """The source under test: pyproject's ``pythonpath`` puts this
    checkout's ``src`` first, whatever PYTHONPATH names."""
    return f"mmdt: {Path(mmdt.__file__).parent}, numpy {np.__version__}"


@pytest.fixture(autouse=True)
def numpy_settings_unchanged():
    """Fails every test after which numpy's ufunc buffer size or its
    floating-point error handling differs from before it, so that a numpy
    setting meant for one scope cannot leak into later tests."""
    before = (np.getbufsize(), np.geterr())
    yield
    assert (np.getbufsize(), np.geterr()) == before, "a numpy setting leaked out of the test"


def gaussian_battery(i: int) -> MixtureModel:
    """Seeded diagonal-Gaussian mixture with K in 2..5, d in 2..8 and the
    explainability-to-noise ratio placed log-uniformly in [1e2, 1e6]."""
    rng = np.random.default_rng(2000 + i)
    k = int(rng.integers(2, 6))
    d = int(rng.integers(2, 9))
    means = rng.uniform(-50.0, 50.0, size=(k, d))
    sigma = rng.uniform(0.5, 2.0, size=d)
    w = rng.dirichlet(np.full(k, 3.0))
    w = np.maximum(w, 0.02)
    w /= w.sum()
    target = 10.0 ** rng.uniform(2.0, 6.0)
    comps = tuple(Component.gaussian(means[j], sigma) for j in range(k))
    rough = MixtureModel.create(comps, w, sigma=sigma)
    scale = math.sqrt(enr(rough) / target)
    sigma = sigma * scale
    comps = tuple(Component.gaussian(means[j], sigma) for j in range(k))
    return MixtureModel.create(comps, w, sigma=sigma)


def translate_battery(seed: int, k_max: int = 4) -> tuple[MixtureModel, KernelSpec]:
    """Seeded all-discrete mixture whose components are translates of a
    common base law (equal kernel self-similarity by construction), shifted
    along one axis far enough that every pair is clearly separated there,
    plus a gaussian-profile kernel scaled to that separation."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, k_max + 1))
    d = int(rng.integers(1, 6))
    m = int(rng.integers(2, 6))
    diameter = 0.6
    base = rng.uniform(0.0, diameter, size=(m, d))
    mass = rng.integers(1, 6, size=m).astype(float)
    mass /= mass.sum()
    axis = int(rng.integers(0, d))
    gap = diameter + rng.uniform(1.5, 3.0)
    shifts = np.zeros((k, d))
    for j in range(k):
        shifts[j, axis] = j * gap
        for other in range(d):
            if other != axis:
                shifts[j, other] = rng.uniform(-0.1, 0.1)
    comps = tuple(Component.discrete(base + shifts[j], mass) for j in range(k))
    w = 1.0 + 0.2 * rng.uniform(0.0, 1.0, k)
    w /= w.sum()
    model = MixtureModel.create(comps, w)
    gamma = rng.uniform(2.3, 10.0) / gap**2
    return model, KernelSpec.uniform("gaussian", gamma, d)


def random_discrete_model(seed: int, k_max: int = 4, d_max: int = 4) -> MixtureModel:
    """Unstructured all-discrete mixture (component norms generally differ)."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, k_max + 1))
    d = int(rng.integers(1, d_max + 1))
    comps = []
    for j in range(k):
        m = int(rng.integers(2, 7))
        sup = rng.normal(scale=0.5, size=(m, d)) + rng.uniform(-4.0, 4.0, size=d)
        mass = rng.integers(1, 5, size=m).astype(float)
        mass /= mass.sum()
        comps.append(Component.discrete(sup, mass))
    w = rng.dirichlet(np.full(k, 4.0))
    w = np.maximum(w, 0.05)
    w /= w.sum()
    return MixtureModel.create(tuple(comps), w)


def scale_shift(model: MixtureModel, scale, shift) -> MixtureModel:
    """Apply x_j -> a_j * x_j + b_j (a_j > 0) jointly to all parameters."""
    a = np.asarray(scale, dtype=float)
    b = np.asarray(shift, dtype=float)
    assert np.all(a > 0), "scale factors must be positive"
    comps = tuple(
        Component.gaussian(a * c.mean + b, a * c.stddev)
        if c.kind == GAUSSIAN
        else Component.discrete(a * c.support + b, c.mass, mean=a * c.mean + b)
        for c in model.components
    )
    return MixtureModel(components=comps, weights=model.weights, sigma=a * model.sigma, alpha=model.alpha)


def as_labeled_dataset(model: MixtureModel, max_rows: int = 100_000) -> LabeledDataset:
    """Expand a discrete model into a dataset whose empirical law is exactly
    the model: each support point repeated proportionally to its joint mass
    (requires all masses to be rational with a modest common denominator)."""
    assert model.all_discrete(), "dataset expansion requires finite-discrete components"
    joint = []
    denom = 1
    for k, c in enumerate(model.components):
        for row, mass in zip(c.support, c.mass):
            frac = Fraction(model.weights[k]).limit_denominator(10**9)
            frac *= Fraction(mass).limit_denominator(10**9)
            joint.append((row, frac, k))
            denom = math.lcm(denom, frac.denominator)
    reps = [int(frac * denom) for _, frac, _ in joint]
    assert sum(reps) <= max_rows, f"expansion needs {sum(reps)} rows > {max_rows}"
    points = np.repeat(np.array([row for row, _, _ in joint]), reps, axis=0)
    labels = np.repeat(np.array([k for _, _, k in joint]), reps)
    return LabeledDataset(points=points, labels=labels)


def cut_mistakes_on_subset(data: CenteredDataset, point_idx, center_idx, axis, theta) -> int:
    """Mistakes of a fixed cut restricted to a subset of points (for the
    monotonicity property: a cut's count never grows on subsets)."""
    return _cut_mistakes(data, np.asarray(point_idx, dtype=int), list(center_idx), axis, theta)
