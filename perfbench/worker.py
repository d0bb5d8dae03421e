"""Benchmark worker: runs one workload's ops in a closed loop, one client.

Started by ``run.py`` as a fresh interpreter with the checkout's ``src`` on
``PYTHONPATH``; it calls the public CLI entry point ``mmdt.cli.main(argv)``
in-process, one op at a time, and writes its raw measurements as JSON.

Every op is preceded by the reference job, whose time tracks how fast the
shared machine runs; ``run.py`` divides op times by it.  Op 0 is the
untimed warm-up.  Untraced runs time every later op.  Traced runs alternate
cycles of untraced and traced ops (their difference is the tracing
overhead) and end with one op under ``tracemalloc`` for allocation peaks.
Digests are compared with the first op of the same input key, and the
workload's oracle runs after the timed window.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import numpy as np

from spans import Tracer
from workloads import WORKLOADS

# The reference job: fixed work owned by the benchmark, in the same mix as
# the workloads (string-to-float parsing in Python, numpy sort and exp).  It
# keeps nothing it allocates and writes into buffers made once here, so its
# time depends on the machine and not on the heap the program left behind,
# and it does not move the worker's peak RSS.
_REF_FIELDS = ",".join(f"{j * 0.37:.12g}" for j in range(100_000)).split(",")
_REF_ARRAY = np.random.default_rng(0).random(200_000)
_REF_BUF = np.empty_like(_REF_ARRAY)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def reference_job() -> float:
    """Wall time of the reference job.  Timed before and after each op, it
    measures how fast the shared machine runs at that moment."""
    t0 = time.perf_counter()
    for _ in range(2):
        for field in _REF_FIELDS:
            float(field)
    for _ in range(8):
        np.copyto(_REF_BUF, _REF_ARRAY)
        _REF_BUF.sort()
        np.exp(np.negative(_REF_ARRAY, out=_REF_BUF), out=_REF_BUF).sum()
    return time.perf_counter() - t0


def run_op(main, wl, i: int, malloc: bool = False) -> dict:
    """One pass of the workload chain, after the reference job; wall time
    per step and per chain, digests of every artifact and ``--json``
    report, computed after the timed chain."""
    steps = wl.steps(i)
    op = {"i": i, "key": wl.key(i), "cmd_s": {}, "error": None, "reports": {}}
    if malloc:
        op["peak_alloc_mb"] = {}
    op["ref_s"] = reference_job()
    t_chain = time.perf_counter()
    for s, (argv, _) in enumerate(steps):
        metric = argv[0].replace("-", "_")
        buf = io.StringIO()
        if malloc:
            tracemalloc.reset_peak()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = main(argv)
        except SystemExit as exc:  # argparse rejects a flag
            code = exc.code
        except Exception:  # the op fails; the run goes on
            code = "exception"
            traceback.print_exc()
        op["cmd_s"][metric] = op["cmd_s"].get(metric, 0.0) + time.perf_counter() - t0
        if malloc:
            peak = tracemalloc.get_traced_memory()[1] / 2**20
            op["peak_alloc_mb"][metric] = max(op["peak_alloc_mb"].get(metric, 0.0), peak)
        op["reports"][s] = buf.getvalue()
        if code != 0:
            op["error"] = f"step {s} ({argv[0]}) exited with {code}"
            break
    op["chain_s"] = time.perf_counter() - t_chain
    digests = {}
    if op["error"] is None:
        for s, (argv, files) in enumerate(steps):
            for name in files:
                digests[name] = _sha256((wl.work / name).read_bytes())
            if "--json" in argv:
                digests[f"step{s}:{argv[0]} --json"] = _sha256(op["reports"][s].encode())
    op["digests"] = digests
    return op


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--work", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    from mmdt.cli import main as cli_main

    wl = WORKLOADS[args.workload](Path(args.work), args.seed)
    with contextlib.redirect_stdout(io.StringIO()):
        wl.prepare(cli_main)
    tracer = Tracer()
    if args.trace:
        tracer.install()

    ops = [run_op(cli_main, wl, 0)]
    ops[0]["warmup"] = True
    t_begin = time.perf_counter()
    # A traced run alternates whole cycles of untraced and traced ops over
    # the input keys and ends on a traced cycle, so every key is traced and
    # counts repeat between runs.
    period = 2 * wl.keys if args.trace else 1
    i = 1
    while time.perf_counter() - t_begin < args.seconds or (i - 1) % period:
        traced = bool(args.trace) and ((i - 1) // wl.keys) % 2 == 1
        tracer.active = traced
        tracer.reset()
        op = run_op(cli_main, wl, i)
        tracer.active = False
        op["traced"] = traced
        if traced:
            op["layers"] = tracer.snapshot()
        ops.append(op)
        i += 1
    # The reference job before the next op also follows this one.
    after = [op["ref_s"] for op in ops[1:]] + [reference_job()]
    for op, ref_after in zip(ops, after):
        op["ref_after_s"] = ref_after
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        tracemalloc.start()
        op = run_op(cli_main, wl, i, malloc=True)
        tracemalloc.stop()
        op["malloc"] = True
        ops.append(op)
    tracer.uninstall()

    # Digests must match the first op on the same inputs; the oracle runs
    # once per input key, on that key's artifacts as the last op left them.
    reference: dict = {}
    for op in ops:
        if op["error"] is None:
            ref = reference.setdefault(op["key"], op["digests"])
            if op["digests"] != ref:
                op["error"] = "output digest differs from the first op on the same inputs"
    oracle = {}
    for key in sorted({op["key"] for op in ops}):
        last = [op for op in ops if op["key"] == key and op["error"] is None]
        if not last:
            continue
        try:
            failures = wl.check(key, last[-1]["reports"])
        except Exception as exc:  # an oracle that cannot run is a failure
            failures = [f"oracle raised {exc!r}"]
            traceback.print_exc()
        oracle[str(key)] = failures
        if failures:
            for op in ops:
                if op["key"] == key and op["error"] is None:
                    op["error"] = "oracle: " + "; ".join(failures)
    for op in ops:
        del op["reports"]
    result = {
        "ops": ops,
        "oracle": oracle,
        "digests": {str(k): v for k, v in reference.items()},
        "peak_rss_mb": peak_rss_mb,
        "missing_layers": tracer.missing,
    }
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
