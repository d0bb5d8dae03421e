#!/usr/bin/env python3
"""Benchmark of the mmdt CLI chain.

    python3 perfbench/run.py --workload NAME [--seed N] --seconds S [--trace 0|1]

Run from the root of a source checkout.  The benchmark generates the
workload's inputs from the seed (default 0), then starts one worker process
that runs the workload's chain of ``mmdt`` commands in a closed loop for S
seconds (see ``worker.py``); CLI start-up (``setup_s``) is timed in fresh
interpreters before and after the worker.  It prints a
table of every metric with its unit and sample count, writes the full
result with provenance and output digests to
``.perfbench/results/<workload>-seed<N>-trace<T>.json``, and ends with one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYERS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# One import of mmdt.cli varied 0.39-0.61 s on the reference machine, so
# set-up is the median of fresh interpreters, this many before the worker
# and as many after it, so that they sample the same stretch of machine
# time as the ops.  One untimed spawn first writes the bytecode cache.
SETUP_SPAWNS = 4
# Run in a fresh interpreter: CPU seconds of its main thread, and wall
# seconds since the parent's spawn, when ``import mmdt.cli`` returns.
SETUP_CODE = (
    "import sys, time; t0 = float(sys.argv[1]); import mmdt.cli; "
    "print(time.thread_time(), time.monotonic() - t0)"
)
# Every run must end within 180 s; the worker gets what is left of this,
# and the set-up spawns after it fit in the rest.
RUN_BUDGET_S = 160.0

MACHINE_CAVEAT = (
    "shared 2-core VM with no visible cgroup CPU limit; other tenants add noise; "
    "inputs fit in memory and page cache, so the workloads measure no cache or "
    "bandwidth effects; BLAS may use up to nproc threads"
)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("MMDT_SEED", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(env: dict, warm: bool = True) -> list[tuple[float, float]]:
    """(main-thread CPU seconds, wall seconds) of fresh interpreters from
    their start until ``import mmdt.cli`` returns."""

    def spawn():
        cmd = [sys.executable, "-c", SETUP_CODE, repr(time.monotonic())]
        done = subprocess.run(
            cmd, env=env, cwd=ROOT, check=True, timeout=60, capture_output=True, text=True
        )
        cpu, wall = map(float, done.stdout.split())
        return cpu, wall

    if warm:
        spawn()
    return [spawn() for _ in range(SETUP_SPAWNS)]


def provenance(args, sizes: dict) -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = got.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "workload": args.workload,
        "why": WORKLOADS[args.workload].why,
        "sizes": sizes,
        "load": "closed loop, one client, one worker process; op 0 is an untimed warm-up",
        "machine": MACHINE_CAVEAT,
    }


def median(values):
    return statistics.median(values) if values else 0.0


def mean(values):
    return statistics.fmean(values) if values else 0.0


def ref_s(op: dict) -> float:
    """Reference job time around an op: the mean of the runs before and
    after it."""
    return 0.5 * (op["ref_s"] + op["ref_after_s"])


def end_to_end(res: dict, setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    """Gated metrics for the last line, and the metrics reported alongside
    them.  Timings are over the successful timed ops."""
    timed = [op for op in res["ops"] if not op.get("warmup") and op["error"] is None]
    n = len(timed)
    metrics = {
        "chain_rel": (median([op["chain_s"] / ref_s(op) for op in timed]), "1", n),
        "peak_rss_mb": (res["peak_rss_mb"], "MB", 1),
        "setup_s": (median([cpu for cpu, _ in setup]), "s", len(setup)),
    }
    extra = {
        "chain_s": (median([op["chain_s"] for op in timed]), "s", n),
        "ref_s": (median([ref_s(op) for op in timed]), "s", n),
        "setup_wall_s": (median([wall for _, wall in setup]), "s", len(setup)),
    }
    for cmd in sorted({c for op in timed for c in op["cmd_s"]}):
        extra[f"{cmd}_s"] = (median([op["cmd_s"][cmd] for op in timed]), "s", n)
    failed = sum(op["error"] is not None for op in res["ops"])
    extra["fail_ratio"] = (failed / len(res["ops"]), "1", len(res["ops"]))
    return metrics, extra


def per_layer(res: dict) -> dict:
    """Per-op medians over traced ops of each layer's self time and share of
    the chain; per-op calls and work counts; allocation peaks from the
    tracemalloc op; tracing overhead as traced minus untraced chain time."""
    ok = [op for op in res["ops"] if op["error"] is None]
    traced = [op for op in ok if op.get("traced")]
    untraced = [op for op in ok if not op.get("traced") and not op.get("warmup")
                and not op.get("malloc")]
    malloc = [op for op in ok if op.get("malloc")]
    n = len(traced)
    # Counts differ between input keys but not between ops of one key: the
    # per-op count is the mean over keys of each key's count.
    by_key = {op["key"]: op for op in traced}
    metrics = {}
    for module, attr, with_calls, count_name, _ in LAYERS:
        name = f"{module}.{attr}"
        rows = [op["layers"].get(name, [0.0, 0, 0]) for op in traced]
        counts = [op["layers"].get(name, [0.0, 0, 0]) for op in by_key.values()]
        metrics[f"{name}.self_s"] = (median([r[0] for r in rows]), "s", n)
        metrics[f"{name}.share"] = (
            median([r[0] / op["chain_s"] for r, op in zip(rows, traced)]), "1", n)
        if with_calls:
            metrics[f"{name}.calls"] = (mean([c[1] for c in counts]), "count", len(counts))
        if count_name:
            metrics[f"{name}.{count_name}"] = (
                mean([c[2] for c in counts]), "count", len(counts))
        if module == "cli":
            cmd = attr[len("cmd_"):]
            peaks = [op["peak_alloc_mb"].get(cmd, 0.0) for op in malloc]
            metrics[f"{name}.peak_alloc_mb"] = (median(peaks), "MB", len(peaks))
    traced_s = median([op["chain_s"] for op in traced])
    untraced_s = median([op["chain_s"] for op in untraced])
    metrics["trace.chain_s"] = (traced_s, "s", n)
    metrics["trace.untraced_chain_s"] = (untraced_s, "s", len(untraced))
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s", min(n, len(untraced)))
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.perf_counter()
    if not (SRC / "mmdt" / "cli.py").is_file():
        print(f"error: no mmdt sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](work, args.seed)
        sizes = wl.generate()
        env = child_env()
        setup = measure_setup(env)
        raw = work / "worker.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--work", str(work), "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(raw)]
        budget = RUN_BUDGET_S - (time.perf_counter() - start)
        try:
            done = subprocess.run(cmd, env=env, cwd=ROOT, timeout=budget)
        except subprocess.TimeoutExpired:
            print(f"error: worker exceeded {budget:.0f} s", file=sys.stderr)
            return 1
        if done.returncode != 0 or not raw.is_file():
            print(f"error: worker exited with {done.returncode}", file=sys.stderr)
            return 1
        setup += measure_setup(env, warm=False)
        res = json.loads(raw.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics, extra = (per_layer(res), {}) if args.trace else end_to_end(res, setup)
    attempted = len(res["ops"])
    failed = sum(op["error"] is not None for op in res["ops"])
    oracle_ok = bool(res["oracle"]) and not any(res["oracle"].values())
    full = {
        "provenance": provenance(args, sizes),
        "attempted": attempted,
        "failed": failed,
        "oracle": res["oracle"],
        "digests": res["digests"],
        "missing_layers": res["missing_layers"],
        "metrics": {k: {"value": v, "unit": u, "samples": c}
                    for k, (v, u, c) in {**metrics, **extra}.items()},
        "setup_spawns_cpu_wall_s": setup,
        "ops": [{k: op.get(k) for k in ("i", "key", "chain_s", "ref_s", "ref_after_s", "cmd_s", "error")}
                for op in res["ops"]],
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(full, indent=2) + "\n", encoding="utf-8")

    for op in res["ops"]:
        if op["error"] is not None:
            print(f"op {op['i']} failed: {op['error']}")
    print(f"{args.workload} seed={args.seed} ops={attempted} failed={failed} "
          f"oracle={'pass' if oracle_ok else 'FAIL'} sizes={json.dumps(sizes)}")
    for k, (v, u, c) in {**metrics, **extra}.items():
        print(f"  {k:<44} {v:>14.6g} {u:<6} n={c}")
    print(f"  full result: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0 and oracle_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
