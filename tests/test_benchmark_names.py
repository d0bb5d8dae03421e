"""The benchmark in ``perfbench/`` times mmdt functions by name, runs CLI
chains and checks its workloads with mmdt's own oracles.  A renamed function
would silently drop out of the traced layers or break an oracle, and a
dropped flag would fail every op, so all three are pinned here.
``perfbench/spans.py`` and ``perfbench/workloads.py`` are only read, never
imported as modules."""

import importlib
import runpy
from pathlib import Path

import pytest

import mmdt.cli  # imports every traced module

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"

# Kernel routing is timed under tree.assign_components since axis and kernel
# trees share one router; the benchmark reports this name as missing.
RETIRED = {"kernel.kernel_assign"}

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


def test_workload_argv_parses(tmp_path):
    workloads = runpy.run_path(str(PERFBENCH / "workloads.py"))["WORKLOADS"]
    parser = mmdt.cli.make_parser()
    for name, workload in workloads.items():
        for argv, _ in workload(tmp_path, 0).steps(0):
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"{name}: mmdt rejects {argv}")
