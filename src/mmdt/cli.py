"""Batch command-line surface.

Exit codes: 0 ok, 2 I/O or parse error, 3 validation error,
4 artifact incompatibility.  The default seed comes from the MMDT_SEED
environment variable (0 when unset); every subcommand is deterministic
given its flags.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import adversarial, baseline, evaluate, io, kernel, mixture, tree
from .errors import FormatError, IncompatibilityError, MMDTError, ValidationError


def _add_seed(parser: argparse.ArgumentParser) -> None:
    # argparse passes a string default through `type`, so a bad MMDT_SEED exits 2
    default = os.environ.get("MMDT_SEED", "0")
    parser.add_argument("--seed", type=int, default=default, help="RNG seed (default: MMDT_SEED or 0)")


def _list_of(convert):
    """argparse type: a comma list of values read by convert."""

    def parse(text: str) -> list:
        return [convert(v) for v in text.split(",")]

    parse.__name__ = f"{convert.__name__} list"  # argparse names it in "invalid float list value"
    return parse


def _gamma(vals: list[float], dim: int) -> np.ndarray:
    if len(vals) == 1:
        vals = vals * dim
    if len(vals) != dim:
        raise ValidationError(f"--gamma needs 1 or {dim} values, got {len(vals)}")
    return np.array(vals)


def cmd_gen(args) -> int:
    if args.construction == "thm2":
        inst = adversarial.gen_thm2(args.k, args.m, seed=args.seed, max_retries=args.max_retries)
    elif args.construction == "thm4":
        inst = adversarial.gen_thm4(args.k, args.q)
    else:
        inst = adversarial.gen_b3(args.d)
    io.save_mixture(args.out, inst.model)
    if args.meta:
        io.save_json(args.meta, inst.to_dict())
    print(f"wrote {args.out} (K={inst.model.k}, d={inst.model.dim})")
    return 0


def cmd_fit_gmm(args) -> int:
    data = io.load_dataset(args.data)
    start = time.perf_counter()
    model = mixture.fit_gmm(data, args.k, seed=args.seed, max_iters=args.max_iters, tol=args.tol)
    elapsed = time.perf_counter() - start
    io.save_mixture(args.out, model)
    print(f"fitted K={args.k} on {data.n} points in {elapsed:.3f}s -> {args.out}")
    return 0


def cmd_moments(args) -> int:
    data = io.load_dataset(args.data)
    if data.labels is None:
        raise ValidationError("moments requires a labeled dataset")
    model = mixture.empirical_moments(data, args.k)
    io.save_mixture(args.out, model)
    print(f"wrote {args.out} (K={args.k}, d={model.dim})")
    return 0


def cmd_build(args) -> int:
    model = io.load_mixture(args.mixture)
    start = time.perf_counter()
    built = tree.build_mmdt(model, args.objective)
    elapsed = time.perf_counter() - start
    io.save_tree(args.out, built)
    print(f"built tree ({model.k} leaves) in {elapsed:.6f}s -> {args.out}")
    return 0


def cmd_build_kernel(args) -> int:
    model = io.load_mixture(args.mixture)
    spec = kernel.KernelSpec(
        profiles=(args.kernel,) * model.dim, gamma=_gamma(args.gamma, model.dim)
    )
    stats = kernel.kernel_stats(model, spec)
    start = time.perf_counter()
    built = kernel.build_kernel_mmdt(model, spec, stats, seed=args.seed)
    elapsed = time.perf_counter() - start
    io.save_tree(args.out, built)
    print(f"built kernel tree ({model.k} leaves) in {elapsed:.6f}s -> {args.out}")
    return 0


def _print_table(payload: dict, as_json: bool, fmt=str) -> None:
    """payload as JSON under ``format_version``, or as ``key  value`` lines
    with the keys padded to one width and every value written by fmt."""
    if as_json:
        print(io.dumps_json({"format_version": 1, **payload}), end="")
        return
    width = max(map(len, payload))
    for key, value in payload.items():
        print(f"{key:<{width}}  {fmt(value)}")


def _print_report(report: evaluate.EvalReport, as_json: bool) -> None:
    if as_json:
        _print_table(report.to_dict(), as_json)
        return
    rows = {
        "price (leaf medians)": f"{report.price_l1:.6f}",
        "price (assigned means)": f"{report.price_l1_hat:.6f}",
        "price (squared l2)": f"{report.price_l2sq:.6f}",
        "error rate": f"{report.error_rate:.6f}",
        "baseline cost": f"{report.baseline_cost:.6f}",
        "tree cost": f"{report.tree_cost:.6f}",
        "mc samples": str(report.mc_samples),
        "mc seed": str(report.mc_seed),
        "confidence radius": f"{report.confidence_radius:.6g}",
    }
    for key in sorted(report.bounds or ()):
        rows[f"bound {key}"] = f"{report.bounds[key]:.6f}"
    if report.fallback_leaves:
        rows["fallback leaves"] = ",".join(map(str, report.fallback_leaves))
    _print_table(rows, as_json)


def cmd_eval(args) -> int:
    model = io.load_mixture(args.mixture)
    loaded = io.load_tree(args.tree)
    if isinstance(loaded, kernel.KernelTree):
        _print_table(kernel.kernel_price(model, loaded, n=args.samples, seed=args.seed).to_dict(), args.json)
        return 0
    if model.all_discrete():
        report = evaluate.exact_eval_discrete(model, loaded)
    else:
        report = evaluate.mc_eval(model, loaded, args.samples, args.seed)
    if model.k >= 2:
        report = evaluate.with_bounds(report, model)
    _print_report(report, args.json)
    return 0


def cmd_eval_data(args) -> int:
    data = io.load_dataset(args.data)
    loaded = io.load_tree(args.tree)
    if not isinstance(loaded, tree.AxisTree):
        raise IncompatibilityError("eval-data expects an axis tree")
    if args.centers:
        centers = io.load_centers(args.centers)
    elif args.mixture:
        centers = io.load_mixture(args.mixture).means()
    else:
        raise ValidationError("eval-data needs --centers or --mixture")
    cdata = baseline.CenteredDataset(data.points, centers)
    norms = ["l1", "l2sq"] if args.norm == "both" else [args.norm]
    out = {}
    for norm in norms:
        out[f"price_{norm}"] = baseline.empirical_price(cdata, loaded, norm=norm)
    leaf_of = tree.assign_components(loaded, data.points)
    out["error_vs_assignment"] = float(np.mean(leaf_of != cdata.assignment))
    if data.labels is not None:
        out["error_vs_labels"] = float(np.mean(leaf_of != data.labels))
    _print_table(out, args.json, "{:.6f}".format)
    return 0


def cmd_baseline_imm(args) -> int:
    data = io.load_dataset(args.data)
    centers = io.load_centers(args.centers)
    cdata = baseline.CenteredDataset(data.points, centers)
    start = time.perf_counter()
    built = baseline.build_imm(cdata)
    elapsed = time.perf_counter() - start
    io.save_tree(args.out, built)
    print(f"built IMM tree ({cdata.k} leaves) in {elapsed:.3f}s -> {args.out}")
    return 0


def bench_rows(sizes, k: int, d: int, seed: int, mmdt_repeats: int = 20) -> list[tuple[str, int, float]]:
    """Wall-clock rows (method, n, seconds) for tree building and fitting.

    The tree builder consumes only the fitted model, so its time is measured
    per build (median over repeats) at every n for the scaling comparison.
    """
    rng = np.random.default_rng(seed)
    means = rng.uniform(-10.0, 10.0, size=(k, d))
    comps = tuple(mixture.Component.gaussian(means[j], np.ones(d)) for j in range(k))
    truth = mixture.MixtureModel.create(comps, np.full(k, 1.0 / k))
    rows: list[tuple[str, int, float]] = []
    for n in sizes:
        data = mixture.sample(truth, n, seed)
        start = time.perf_counter()
        fitted = mixture.fit_gmm(data, k, seed=seed)
        rows.append(("fit-gmm", n, time.perf_counter() - start))

        times = []
        for _ in range(mmdt_repeats):
            start = time.perf_counter()
            tree.build_mmdt(fitted, "gaussian")
            times.append(time.perf_counter() - start)
        rows.append(("mmdt-build", n, float(np.median(times))))

        cdata = baseline.CenteredDataset(data.points, fitted.means())
        start = time.perf_counter()
        baseline.build_imm(cdata)
        rows.append(("imm-build", n, time.perf_counter() - start))
    return rows


def cmd_bench(args) -> int:
    rows = bench_rows(args.sizes, args.k, args.d, args.seed)
    lines = ["method,n,seconds"] + [f"{m},{n},{s:.6f}" for m, n, s in rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        io.write_text(args.out, text)
    print(text, end="")
    return 0


def cmd_export_dot(args) -> int:
    text = tree.export_dot(io.load_tree(args.tree))
    if args.out:
        io.write_text(args.out, text)
    else:
        print(text, end="")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mmdt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an adversarial instance")
    p.add_argument("construction", choices=["thm2", "thm4", "b3"])
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--m", type=int, default=0, help="thm2: extra center copies")
    p.add_argument("--q", type=int, default=4, help="thm4: noise parameter (>= K)")
    p.add_argument("--d", type=int, default=4, help="b3: dimension")
    p.add_argument("--max-retries", type=int, default=1000)
    p.add_argument("--out", required=True)
    p.add_argument("--meta", help="also write analytic targets JSON")
    _add_seed(p)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("fit-gmm", help="fit a diagonal-covariance mixture by EM")
    p.add_argument("--data", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max-iters", type=int, default=200)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out", required=True)
    _add_seed(p)
    p.set_defaults(fn=cmd_fit_gmm)

    p = sub.add_parser("moments", help="empirical moments from a labeled dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_moments)

    p = sub.add_parser("build", help="build the axis tree from a mixture")
    p.add_argument("--mixture", required=True)
    p.add_argument("--objective", choices=list(tree.OBJECTIVES), default="chebyshev")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("build-kernel", help="build the kernel-similarity tree")
    p.add_argument("--mixture", required=True)
    p.add_argument("--kernel", choices=list(kernel.PROFILES), default="gaussian")
    p.add_argument("--gamma", type=_list_of(float), default="1.0", help="comma list, one value or one per axis")
    # Ignored (every statistic is exact); the kernel-price benchmark still passes it, until the
    # benchmark change of ROADMAP item 5 (which item 3 needs) moves that workload off it.
    p.add_argument("--mode", choices=["exact", "mc"], default="exact", help=argparse.SUPPRESS)
    p.add_argument("--out", required=True)
    _add_seed(p)
    p.set_defaults(fn=cmd_build_kernel)

    p = sub.add_parser("eval", help="evaluate a tree against a mixture")
    p.add_argument("--mixture", required=True)
    p.add_argument("--tree", required=True)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--json", action="store_true")
    _add_seed(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("eval-data", help="empirical price of a tree on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--tree", required=True)
    p.add_argument("--centers")
    p.add_argument(
        "--mixture",
        help="take centers from this mixture's means; CSV labels are only "
        "comparable to leaf ids when the mixture preserves label order "
        "(e.g. one produced by `moments`)",
    )
    p.add_argument("--norm", choices=["l1", "l2sq", "both"], default="both")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_eval_data)

    p = sub.add_parser("baseline-imm", help="build the mistake-minimizing baseline tree")
    p.add_argument("--data", required=True)
    p.add_argument("--centers", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_baseline_imm)

    p = sub.add_parser("bench", help="timing sweep over dataset sizes")
    p.add_argument("--sizes", type=_list_of(int), default="1000,10000,100000")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--out")
    _add_seed(p)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("export-dot", help="render a tree as Graphviz DOT")
    p.add_argument("--tree", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_export_dot)

    return parser


_EXIT_CODES = ((FormatError, 2), (ValidationError, 3), (IncompatibilityError, 4), (MMDTError, 1))


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        for path in (getattr(args, "out", None), getattr(args, "meta", None)):
            if path:
                io.check_writable(path)
        return args.fn(args)
    except MMDTError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
