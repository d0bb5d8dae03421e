"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces each traced function of ``mmdt`` with a wrapper,
in every ``mmdt`` module that holds a reference to it, so that calls are
caught wherever the caller looks the function up (``mmdt.evaluate`` imports
``assign_components`` from ``mmdt.tree``, for instance).  A wrapper records
one span per call; a layer's self time is its span time minus the time of
the traced spans it caused.  Spans are aggregated per op in memory.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute, report calls?, count name, count function) per traced
# layer.  The count function maps (args, kwargs, result) to the units of
# work one call did.
LAYERS = [
    ("io", "load_dataset", True, "rows", lambda a, kw, r: r.n),
    ("io", "load_mixture", False, None, None),
    ("io", "save_mixture", False, None, None),
    ("io", "load_tree", False, None, None),
    ("io", "save_tree", False, None, None),
    ("mixture", "fit_gmm", False, "em_iters", None),  # counted by _fit_gmm_wrapper
    ("mixture", "empirical_moments", False, None, None),
    ("mixture", "sample", False, None, None),
    ("tree", "select_axis", True, None, None),
    ("tree", "minimize_threshold", True, "components", lambda a, kw, r: len(a[1])),
    ("tree", "build_mmdt", False, None, None),
    ("tree", "assign_components", False, "rows", lambda a, kw, r: len(r)),
    ("evaluate", "weighted_median", True, None, None),
    ("evaluate", "mc_eval", False, None, None),
    ("evaluate", "exact_eval_discrete", False, None, None),
    ("evaluate", "with_bounds", False, None, None),
    ("baseline", "nearest_center", False, None, None),
    ("baseline", "build_imm", False, None, None),
    ("baseline", "empirical_price", False, None, None),
    ("kernel", "KernelSpec.profile_value", False, "elements", lambda a, kw, r: int(np.size(r))),
    ("kernel", "kernel_stats", False, None, None),
    ("kernel", "build_kernel_mmdt", False, None, None),
    ("kernel", "kernel_price", False, None, None),
    ("kernel", "kernel_assign", False, None, None),
] + [
    ("cli", f"cmd_{c}", False, None, None)
    for c in ("fit_gmm", "moments", "build", "build_kernel", "eval", "eval_data", "baseline_imm")
]


class Tracer:
    """Span recorder; ``active`` switches recording on for traced ops."""

    def __init__(self):
        self.active = False
        self.missing: list[str] = []
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        # name -> [self seconds, calls, counted units]
        self.stats: dict[str, list] = defaultdict(lambda: [0.0, 0, 0])

    def _record(self, name: str, fn, count, args, kwargs):
        self._stack.append(0.0)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span = time.perf_counter() - t0
            child = self._stack.pop()
            if self._stack:
                self._stack[-1] += span
            entry = self.stats[name]
            entry[0] += span - child
            entry[1] += 1
        if count is not None:
            entry[2] += count(args, kwargs, result)
        return result

    def _wrap(self, name: str, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            return self._record(name, fn, count, args, kwargs)

        return wrapper

    def _fit_gmm_wrapper(self, name: str, fn):
        # fit_gmm builds its log-likelihood history either way; asking for
        # it counts EM iterations without extra work.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            wants_history = kwargs.pop("return_history", False)
            model, history = self._record(
                name, fn, None, args, {**kwargs, "return_history": True}
            )
            self.stats[name][2] += len(history)
            return (model, history) if wants_history else model

        return wrapper

    def install(self) -> None:
        """Wrap every layer in ``LAYERS``; a layer the program no longer has
        is listed in ``missing`` and reports zeros."""
        for module, attr, _, _, count in LAYERS:
            name = f"{module}.{attr}"
            owner = sys.modules.get(f"mmdt.{module}")
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            fn = getattr(owner, path[-1], None) if owner is not None else None
            if fn is None:
                self.missing.append(name)
                continue
            wrapper = (
                self._fit_gmm_wrapper(name, fn) if name == "mixture.fit_gmm"
                else self._wrap(name, fn, count)
            )
            holders = [owner] if len(path) > 1 else [
                m for key, m in list(sys.modules.items())
                if (key == "mmdt" or key.startswith("mmdt.")) and m is not None
            ]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        self._undo.append((holder, key, fn))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, fn in reversed(self._undo):
            setattr(holder, key, fn)
        self._undo.clear()

    def snapshot(self) -> dict[str, list]:
        """Per-layer [self_s, calls, units] since the last reset."""
        return {name: list(v) for name, v in self.stats.items()}
