"""The benchmark in ``perfbench/`` times mmdt functions by name, runs CLI
chains and checks its workloads with mmdt's own oracles.  A renamed function
would silently drop out of the traced layers or break an oracle, and a
dropped flag would fail every op, so all three are pinned here.
``perfbench/spans.py`` and ``perfbench/workloads.py`` are only read, never
imported as modules."""

import dataclasses
import importlib
import runpy
from pathlib import Path

import pytest

import mmdt.cli  # imports every traced module
from mmdt import ValidationError, build_kernel_mmdt, build_mmdt, kernel_stats, predict
from mmdt.io import save_mixture, save_tree

from conftest import gaussian_battery, translate_battery

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"

# Kernel routing is timed under tree.assign_components since axis and kernel
# trees share one router, and both axis evaluators became one,
# evaluate.evaluate_tree, whose self time shows under cli.cmd_eval until the
# benchmark traces it; the benchmark reports these names as missing.
RETIRED = {"kernel.kernel_assign", "evaluate.mc_eval", "evaluate.exact_eval_discrete"}

ORACLES = [
    "tree.check_structure",
    "kernel.check_structure",
    "kernel.interval_predict",
    "evaluate.exact_error_rate_gaussian",
    "io.load_tree",
    "io.load_mixture",
    "io.load_centers",
]


def resolve(name: str):
    module, *path = name.split(".")
    owner = importlib.import_module(f"mmdt.{module}")
    for part in path:
        owner = getattr(owner, part, None)
    return owner


def test_traced_layers_resolve():
    layers = runpy.run_path(str(SPANS))["LAYERS"]
    names = [f"{module}.{attr}" for module, attr, *_ in layers]
    assert "tree.assign_components" in names
    missing = {name for name in names if not callable(resolve(name))}
    assert missing <= RETIRED, sorted(missing - RETIRED)


def test_oracle_entry_points_exist():
    assert [name for name in ORACLES if not callable(resolve(name))] == []


def test_oracles_take_the_benchmark_arguments(tmp_path):
    # Loaded from files and called with positional arguments, as the
    # workloads' checks call them.
    load_mixture, load_tree = resolve("io.load_mixture"), resolve("io.load_tree")
    check_structure = resolve("tree.check_structure")
    save_mixture(tmp_path / "gauss.json", gaussian_battery(3))
    save_tree(tmp_path / "tree.json", build_mmdt(gaussian_battery(3), "chebyshev"))
    model, built = load_mixture(tmp_path / "gauss.json"), load_tree(tmp_path / "tree.json")
    assert check_structure(built, model.means()) is None
    # the root's two subtrees swapped: the root cut, its right subtree, its left subtree
    root, left, right = built.nodes[0], built.nodes[1 : built.right[0]], built.nodes[built.right[0] :]
    swapped = dataclasses.replace(built, nodes=(root, *right, *left))
    with pytest.raises(ValidationError):
        check_structure(swapped, model.means())
    rate = resolve("evaluate.exact_error_rate_gaussian")(model, built)
    assert isinstance(rate, float) and 0.0 <= rate <= 1.0

    discrete, ker = translate_battery(5)
    save_tree(tmp_path / "ktree.json", build_kernel_mmdt(discrete, ker, kernel_stats(discrete, ker), seed=0))
    ktree = load_tree(tmp_path / "ktree.json")
    points = [x for comp in discrete.components for x in comp.support]
    interval_predict = resolve("kernel.interval_predict")
    assert [interval_predict(ktree, x) for x in points] == [predict(ktree, x) for x in points]


def test_workload_argv_parses(tmp_path):
    workloads = runpy.run_path(str(PERFBENCH / "workloads.py"))["WORKLOADS"]
    parser = mmdt.cli.make_parser()
    for name, workload in workloads.items():
        for argv, _ in workload(tmp_path, 0).steps(0):
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"{name}: mmdt rejects {argv}")
