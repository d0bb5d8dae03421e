import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmdt import Component, FormatError, LabeledDataset, MixtureModel, sample
from mmdt.adversarial import gen_b3, gen_thm4
from mmdt import cli as cli_module
from mmdt import mixture as mixture_module
from mmdt import tree as tree_module
from mmdt.cli import main
from mmdt.io import (
    dumps_json,
    load_centers,
    load_dataset,
    load_mixture,
    load_tree,
    save_mixture,
    save_tree,
)
from mmdt.mixture import array_fingerprint
from mmdt.tree import AxisCut, AxisTree

from conftest import DATA_DIR, gaussian_battery, translate_battery
from oracles import moved_thresholds, save_centers, save_dataset


def test_dataset_csv_round_trip(tmp_path):
    inst = gen_b3(3)
    data = sample(inst.model, 57, seed=4)
    path = tmp_path / "d.csv"
    save_dataset(path, data)
    back = load_dataset(path)
    assert back.points.tobytes() == data.points.tobytes()
    assert back.labels.tobytes() == data.labels.tobytes()
    text = path.read_text()
    assert text.splitlines()[0] == "x1,x2,x3,label"


def test_dataset_csv_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b\n1,2\n")
    with pytest.raises(FormatError, match="header"):
        load_dataset(p)
    p.write_text("x1,label\noops,0\n")
    with pytest.raises(FormatError, match="line 2"):
        load_dataset(p)


_INT64 = range(-(2**63), 2**63)


def reference_load(text: str):
    """Row-by-row CSV reader with the loader's rules: (points, labels) on
    success, else ValueError carrying the message the loader gives after
    the path.  A row's fields that float() or int() reject are named first;
    then a field that they take and numpy does not, with a digit separator,
    a non-ASCII character or, as a label, a value outside int64."""
    rows = csv.reader(io.StringIO(text))
    header = [h.strip() for h in next(rows, [])]
    has_label = bool(header) and header[-1] == "label"
    dim = len(header) - (1 if has_label else 0)
    if dim < 1 or header[:dim] != [f"x{j + 1}" for j in range(dim)]:
        raise ValueError(f"expected header x1..xd[,label], got {header}")
    points, labels = [], []
    for lineno, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise ValueError(f"line {lineno} has {len(row)} fields, expected {len(header)}")
        try:
            points.append([float(v) for v in row[:dim]])
            if has_label:
                labels.append(int(row[dim]))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
        for j, field in enumerate(row):
            kind = "int64" if has_label and j == dim else "float64"
            if "_" in field or not field.strip().isascii() or (kind == "int64" and labels[-1] not in _INT64):
                raise ValueError(f"line {lineno}: could not convert string {field!r} to {kind}")
    data = LabeledDataset(  # raises ValidationError, a ValueError, on bad values
        points=np.array(points, dtype=float).reshape(-1, dim),
        labels=np.array(labels, dtype=int) if has_label else None,
    )
    return data.points, data.labels


MUTATIONS = ("blank", "quote", "space", "short", "long", "oops", "half", "separator", "arabic", "huge")


@st.composite
def csv_texts(draw):
    """A valid dataset CSV whose rows may carry mutations, some of which make
    it invalid."""
    dim = draw(st.integers(1, 3))
    labeled = draw(st.booleans())
    lines = [",".join([f"x{j + 1}" for j in range(dim)] + (["label"] if labeled else []))]
    values = st.floats(allow_nan=False, allow_infinity=False)
    for _ in range(draw(st.integers(1, 5))):
        row = [repr(draw(values)) for _ in range(dim)]
        if labeled:
            row.append(str(draw(st.integers(0, 9))))
        for mutation in draw(st.lists(st.sampled_from(MUTATIONS), max_size=2)):
            j = draw(st.integers(0, len(row) - 1)) if row else 0
            if mutation == "blank":
                lines.append("")
            elif mutation == "quote" and row:
                row[j] = f'"{row[j]}"'
            elif mutation == "space" and row:
                row[j] = f" {row[j]}  "
            elif mutation == "short":
                row = row[:-1]
            elif mutation == "long":
                row.append("0")
            elif mutation in ("oops", "half") and row:
                row[-1] = "oops" if mutation == "oops" else "1.5"
            elif mutation in ("separator", "arabic", "huge") and row:
                # float() and int() take these; numpy takes only the huge value, as a float
                row[j] = {"separator": "1_000", "arabic": "\u0661", "huge": "99999999999999999999"}[mutation]
        lines.append(",".join(row))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol, eol + eol]))


@settings(max_examples=300, deadline=None)
@given(csv_texts())
def test_load_dataset_matches_row_reference(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        try:
            points, labels = reference_load(path.read_text(encoding="utf-8"))
        except ValueError as exc:
            with pytest.raises(FormatError) as err:
                load_dataset(path)
            assert str(err.value) == f"{path}: {exc}"
            return
        data = load_dataset(path)
    assert data.points.tobytes() == points.tobytes()
    assert (data.labels is None) == (labels is None)
    if labels is not None:
        assert data.labels.tobytes() == labels.tobytes()


@pytest.mark.parametrize(
    "text, match",
    [
        ("x1,x2,label\n", "at least one row"),  # header only
        ("x1,x2,label\n1,2\n3,4\n", "line 2 has 2 fields, expected 3"),  # every row short
        ("x1,x2,label\n1,2,0,0\n3,4,1,0\n", "line 2 has 4 fields, expected 3"),  # every row long
        ("x1,label\n1,0\n\n\n2,oops\n", "line 5: invalid literal"),  # after two blank lines
        ("x1,label\n1,0\n2,1.5\n", "line 3: invalid literal"),
        ("x1,label\n1_0,0\n", "could not convert string '1_0'"),  # float() accepts it, numpy not
    ],
)
def test_load_dataset_rejects(tmp_path, capsys, text, match):
    path = tmp_path / "d.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FormatError, match=match):
            load_dataset(path)
    assert run_cli("fit-gmm", "--data", path, "--k", 2, "--out", tmp_path / "m.json") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "Traceback" not in err


def test_load_dataset_single_row_and_unlabeled_d1(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x1,x2,label\n0.5,-2,3\n")
    data = load_dataset(path)
    assert data.points.tolist() == [[0.5, -2.0]] and data.labels.tolist() == [3]
    path.write_text("x1\n5\n\n-2.5")
    data = load_dataset(path)
    assert data.points.tolist() == [[5.0], [-2.5]] and data.labels is None


def test_load_dataset_memory(tmp_path):
    rng = np.random.default_rng(0)
    n = 200_000
    table = np.column_stack([rng.normal(size=(n, 4)), rng.integers(0, 5, n)])
    path = tmp_path / "big.csv"
    np.savetxt(path, table, fmt=["%.17g"] * 4 + ["%d"], delimiter=",", header="x1,x2,x3,x4,label", comments="")
    tracemalloc.start()
    try:
        data = load_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data.points.shape == (n, 4) and data.labels.shape == (n,)
    assert peak < 32e6, f"peak {peak / 1e6:.1f} MB"


def test_mixture_json_schema():
    import jsonschema

    schema = json.loads(
        (Path(__file__).parent.parent / "src/mmdt/schemas/mixture.schema.json").read_text()
    )
    for payload in (gen_b3(4).model.to_dict(), gen_thm4(3, 6).model.to_dict()):
        jsonschema.validate(payload, schema)


def test_mixture_json_errors(tmp_path):
    p = tmp_path / "m.json"
    p.write_text("{not json")
    with pytest.raises(FormatError, match="line 1"):
        load_mixture(p)
    p.write_text('{"weights": [1.0]}')
    with pytest.raises(FormatError, match="missing field"):
        load_mixture(p)


def test_absent_mass_loads_as_the_explicit_uniform_mass(tmp_path):
    # 1/3 and 1/7 are inexact, so any other rounding of the implied mass would show
    rng = np.random.default_rng(3)
    model = MixtureModel.create(
        tuple(Component.discrete(rng.standard_normal((n, 2)), np.full(n, 1.0 / n)) for n in (3, 7)), [0.5, 0.5]
    )
    implied, explicit = tmp_path / "implied.json", tmp_path / "explicit.json"
    save_mixture(implied, model)
    doc = json.loads(implied.read_text())
    assert all("mass" not in c for c in doc["components"])
    for c in doc["components"]:
        c["mass"] = [1.0 / len(c["support"])] * len(c["support"])
    explicit.write_text(json.dumps(doc, indent=2) + "\n")
    for path in (implied, explicit):
        back = load_mixture(path)
        assert back.fingerprint() == model.fingerprint()
        for got, want in zip(back.components, model.components):
            assert got.mass.tobytes() == want.mass.tobytes()
            assert got.support.tobytes() == want.support.tobytes()
            assert got.mean.tobytes() == want.mean.tobytes()


def test_non_uniform_mass_is_written_and_read_bit_for_bit(tmp_path):
    third = 1.0 / 3
    # one ulp from uniform is not uniform
    masses = ([0.1, 0.2, 0.7], [third, third, float(np.nextafter(third, 1.0))])
    comps = tuple(Component.discrete(np.arange(6.0).reshape(3, 2) + k, mass) for k, mass in enumerate(masses))
    model = MixtureModel.create(comps, [0.5, 0.5])
    path = tmp_path / "m.json"
    save_mixture(path, model)
    assert [c["mass"] for c in json.loads(path.read_text())["components"]] == list(masses)
    back = load_mixture(path)
    for got, want in zip(back.components, model.components):
        assert got.mass.tobytes() == want.mass.tobytes()
    assert back.fingerprint() == model.fingerprint()


def test_centers_round_trip(tmp_path):
    p = tmp_path / "c.json"
    save_centers(p, np.array([[0.0, 1.0], [2.0, 3.0]]))
    np.testing.assert_array_equal(load_centers(p), [[0.0, 1.0], [2.0, 3.0]])


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_cli_pipeline(tmp_path, capsys):
    mix = tmp_path / "m.json"
    meta = tmp_path / "meta.json"
    tree = tmp_path / "t.json"
    assert run_cli("gen", "b3", "--d", 4, "--out", mix, "--meta", meta) == 0
    assert run_cli("build", "--mixture", mix, "--objective", "exact-discrete", "--out", tree) == 0
    assert run_cli("eval", "--mixture", mix, "--tree", tree, "--json") == 0
    out = capsys.readouterr().out
    payload = json.loads(out.splitlines()[-1] and out[out.index("{") :])
    assert payload["price_l1"] == pytest.approx(1.25)
    assert json.loads(meta.read_text())["targets"]["price"] == pytest.approx(1.25)


_FLOATS = st.floats() | st.floats().map(np.float64)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# rows of one width, such as a support, at any depth
_MATRICES = st.integers(1, 3).flatmap(lambda width: st.lists(st.lists(_FINITE, min_size=width, max_size=width), min_size=1))
_PAYLOADS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text() | _FLOATS
    | st.lists(_FLOATS) | st.lists(_FINITE | _FINITE.map(np.float64)) | _MATRICES,
    lambda children: st.lists(children) | st.lists(children).map(tuple) | st.dictionaries(st.text(), children),
    max_leaves=20,
)


@settings(max_examples=150, deadline=None)
@given(_PAYLOADS)
@example({"a": [-0.0, 0.0, math.nan, math.inf, -math.inf], "b": [], "c": {}, "d": ((), [[]], {"e": {}})})
@example([np.float64(-0.0), 1e-300, np.float64(math.inf), 2.5, np.float64(1e22)])
@example({"\"quote\"\n": "tab\t, back\\slash, \u00e9, \u2028", "": [None, True, False, 0, -7, 10**30]})
@example({"ragged": [[1.0, 2.0], [3.0]], "empty rows": [[]], "two empty rows": [[], []]})
@example({"int": [[1.0, 2], [3.0, 4.0]], "bool": [[0.5, 1.5], [True, 2.5]], "nan": [[1.0, 2.0], [math.nan, 0.5]]})
@example({"np.float64 rows": [[np.float64(0.1), np.float64(-0.0)], [np.float64(1e22), 2.5]], "one row": [[1e-300]]})
@example({"tuple of lists": ([1.0, 2.0], [3.0, 4.0]), "list of tuples": [(1.0, 2.0), (3.0, 4.0)]})
@example({"three deep": [[[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0], [7.0, 8.0]]], "mixed": [[1.0], 2.0]})
def test_dumps_json_writes_what_json_dumps_writes(payload):
    assert dumps_json(payload) == json.dumps(payload, indent=2) + "\n"


def test_written_trees_carry_the_fingerprint_of_their_input(tmp_path):
    discrete, ker = translate_battery(5)
    mix, data, centers = tmp_path / "m.json", tmp_path / "d.csv", tmp_path / "c.json"
    save_mixture(mix, discrete)
    save_dataset(data, sample(discrete, 500, seed=1))
    save_centers(centers, discrete.means())
    gamma = ",".join(repr(float(g)) for g in ker.gamma)
    builds = {
        "build": ("build", "--mixture", mix, "--objective", "exact-discrete"),
        "build-kernel": ("build-kernel", "--mixture", mix, "--gamma", gamma, "--seed", 3),
    }
    for name, argv in builds.items():
        out = tmp_path / f"{name}.json"
        assert run_cli(*argv, "--out", out) == 0
        assert load_tree(out).model_fingerprint == load_mixture(mix).fingerprint(), name
    imm = tmp_path / "imm.json"
    assert run_cli("baseline-imm", "--data", data, "--centers", centers, "--out", imm) == 0
    assert load_tree(imm).model_fingerprint == array_fingerprint(load_centers(centers))


def test_cli_build_determinism(tmp_path):
    mix = tmp_path / "m.json"
    t1 = tmp_path / "t1.json"
    t2 = tmp_path / "t2.json"
    run_cli("gen", "thm4", "--k", 3, "--q", 9, "--out", mix)
    run_cli("build", "--mixture", mix, "--objective", "chebyshev", "--out", t1)
    run_cli("build", "--mixture", mix, "--objective", "chebyshev", "--out", t2)
    assert t1.read_bytes() == t2.read_bytes()


def test_tree_json_with_retired_options_loads(tmp_path):
    # trees written before the build seed and the grid size were removed
    # still carry both under "options"
    path = tmp_path / "old.json"
    path.write_text(json.dumps({
        "format_version": 1,
        "kind": "axis",
        "dim": 1,
        "n_leaves": 2,
        "model_fingerprint": "",
        "root": {"axis": 0, "theta": 0.5, "left": {"leaf": 0}, "right": {"leaf": 1}},
        "options": {"objective": "gaussian", "seed": 5, "intervals_per_gap": 16},
    }))
    tree = load_tree(path)
    assert tree.objective == "gaussian"
    assert tree.nodes[0].theta == 0.5 and tree.leaves() == [0, 1]
    assert tree.to_dict()["options"] == {"objective": "gaussian"}


@pytest.mark.parametrize(
    "root, message",
    [
        ({"axis": 99, "theta": 0.5, "left": {"leaf": 0}, "right": {"leaf": 1}}, "cut axis 99"),
        ({"axis": -1, "theta": 0.5, "left": {"leaf": 0}, "right": {"leaf": 1}}, "cut axis -1"),
        ({"axis": 0, "theta": 0.5, "left": {"leaf": 0}, "right": {"leaf": 7}}, "bijection"),
        ({"axis": 0, "theta": 0.5, "left": {"leaf": 1}, "right": {"leaf": 1}}, "bijection"),
    ],
)
def test_cli_eval_rejects_invalid_axis_tree(tmp_path, capsys, root, message):
    mix = tmp_path / "m.json"
    tree = tmp_path / "t.json"
    run_cli("gen", "b3", "--d", 2, "--out", mix)
    payload = {"format_version": 1, "kind": "axis", "dim": 2, "n_leaves": 2, "root": root}
    tree.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run_cli("eval", "--mixture", mix, "--tree", tree) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err


@pytest.mark.parametrize("objective", ["nope", ["chebyshev"], 5])
def test_cli_eval_rejects_unknown_tree_objective(tmp_path, capsys, objective):
    mix = tmp_path / "m.json"
    tree = tmp_path / "t.json"
    run_cli("gen", "b3", "--d", 2, "--out", mix)
    root = {"axis": 0, "theta": 0.5, "left": {"leaf": 0}, "right": {"leaf": 1}}
    payload = {"format_version": 1, "kind": "axis", "dim": 2, "n_leaves": 2, "root": root,
               "options": {"objective": objective}}
    tree.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run_cli("eval", "--mixture", mix, "--tree", tree) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "objective must be one of" in err and "Traceback" not in err


def first_leaf(nodes: list) -> dict:
    return next(node for node in nodes if "leaf" in node)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda nodes: first_leaf(nodes).update(leaf=7), "bijection"),
        (lambda nodes: nodes[0].update(axis=3), "cut axis 3"),
        (lambda nodes: nodes[0].update(axis=-1), "cut axis -1"),
        (lambda nodes: nodes[0].update(prototype=[]), "prototype shape (0,)"),
    ],
)
def test_cli_eval_rejects_invalid_kernel_tree(tmp_path, capsys, edit, message):
    mix = tmp_path / "m.json"
    tree = tmp_path / "kt.json"
    run_cli("gen", "b3", "--d", 3, "--out", mix)
    assert run_cli("build-kernel", "--mixture", mix, "--kernel", "gaussian", "--out", tree) == 0
    payload = json.loads(tree.read_text())
    edit(payload["nodes"])
    tree.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run_cli("eval", "--mixture", mix, "--tree", tree) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err


def _ragged_support(mix: dict) -> dict:
    mix["components"][0]["support"][0].append(1.0)
    return mix


def _component_as_list(mix: dict) -> dict:
    mix["components"][0] = list(mix["components"][0].values())
    return mix


def _string_gamma(tree: dict) -> dict:
    tree["kernel"]["gamma"][0] = "a"
    return tree


def _root_with(tree: dict, **fields) -> dict:
    return {**tree, "nodes": [{**tree["nodes"][0], **fields}, *tree["nodes"][1:]]}


def _kernel_with(tree: dict, **fields) -> dict:
    return {**tree, "kernel": {**tree["kernel"], **fields}}


def _caterpillar_text(tree: dict, leaves: int = 1100) -> str:
    # A format-1 tree: leaf c hangs right of the c-th cut, so the JSON nests
    # about `leaves` levels deep; built as text, since json.dumps cannot nest
    # that deep.
    node = f'{{"leaf": {leaves - 1}}}'
    for c in range(leaves - 2, -1, -1):
        node = f'{{"axis": 0, "theta": {float(c)}, "left": {node}, "right": {{"leaf": {c}}}}}'
    header = {key: value for key, value in tree.items() if key != "nodes"}
    return json.dumps({**header, "format_version": 1, "n_leaves": leaves})[:-1] + f', "root": {node}}}'


def _first_component_with(mix: dict, **fields) -> dict:
    return {**mix, "components": [{**mix["components"][0], **fields}, *mix["components"][1:]]}


def _uniform_mass(mix: dict) -> list:
    # a gen b3 file leaves its uniform masses implied; the edits write them out
    n = len(mix["components"][0]["support"])
    return [1.0 / n] * n


def _strings(values: list) -> list:
    return [_strings(v) if isinstance(v, list) else str(v) for v in values]


def _leaves_plus(tree: dict, offset: float) -> dict:
    # int() truncates every shifted leaf back to itself, so only a type check sees the edit
    return {**tree, "nodes": [{"leaf": node["leaf"] + offset} if "leaf" in node else node for node in tree["nodes"]]}


# artifact, edit of its JSON payload, allowed exit codes; a tree's "root"
# in an id is its node list, which format 2 writes in place of the root
_MALFORMED = [
    pytest.param("axis", lambda t: {**t, "nodes": 5}, {2, 3, 4}, id="tree-root-int"),
    pytest.param("axis", lambda t: {**t, "nodes": []}, {2, 3, 4}, id="tree-root-list"),
    pytest.param("axis", lambda t: _root_with(t, theta="a"), {2, 3, 4}, id="tree-theta"),
    pytest.param("axis", lambda t: _root_with(t, axis=None), {2, 3, 4}, id="tree-axis"),
    pytest.param(
        "axis",
        lambda t: {**t, "nodes": [{"axis": 0, "theta": 0.0}, {"leaf": "x"}, {"leaf": 1}]},
        {2, 3, 4},
        id="tree-leaf-str",
    ),
    pytest.param("axis", lambda t: {**t, "dim": "a"}, {2, 3, 4}, id="tree-dim-str"),
    pytest.param("axis", lambda t: [t], {2, 3, 4}, id="tree-toplevel-list"),
    # JSON 1e400 reads as the float inf
    pytest.param("axis", lambda t: {**t, "n_leaves": 1e400}, {2, 3, 4}, id="tree-n-leaves-overflow"),
    # integer fields take JSON integers only: no float is truncated, and no
    # bool read as 0 or 1
    pytest.param("axis", lambda t: _leaves_plus(t, 0.4), {2}, id="tree-leaf-float"),
    pytest.param("axis", lambda t: _root_with(t, axis=t["nodes"][0]["axis"] + 0.9), {2}, id="tree-axis-float"),
    pytest.param("axis", lambda t: {**t, "n_leaves": t["n_leaves"] + 0.7}, {2}, id="tree-n-leaves-float"),
    pytest.param("axis", lambda t: {**t, "n_leaves": float(t["n_leaves"])}, {2}, id="tree-n-leaves-integral-float"),
    pytest.param("axis", lambda t: {**t, "dim": t["dim"] + 0.2}, {2}, id="tree-dim-float"),
    pytest.param("axis", lambda t: {**t, "dim": True}, {2}, id="tree-dim-bool"),
    pytest.param("axis", lambda t: {**t, "n_leaves": t["n_leaves"] + 1}, {3}, id="tree-n-leaves-count"),
    pytest.param("kernel", lambda t: _root_with(t, anchor=0.5), {2}, id="kernel-anchor-float"),
    pytest.param("kernel", lambda t: {**t, "seed": 1.5}, {2}, id="kernel-seed-float"),
    pytest.param("axis", _caterpillar_text, {2}, id="tree-nested-too-deeply"),
    pytest.param("kernel", _string_gamma, {2, 3, 4}, id="kernel-gamma-str"),
    # number fields take JSON numbers only: no numeric string, and no bool read as 0 or 1
    pytest.param("axis", lambda t: _root_with(t, theta=str(t["nodes"][0]["theta"])), {2}, id="tree-theta-numeric-str"),
    pytest.param("axis", lambda t: _root_with(t, theta=True), {2}, id="tree-theta-bool"),
    pytest.param("kernel", lambda t: _root_with(t, theta=str(t["nodes"][0]["theta"])), {2}, id="kernel-theta-numeric-str"),
    pytest.param(
        "kernel", lambda t: _root_with(t, prototype=list(map(str, t["nodes"][0]["prototype"]))), {2}, id="kernel-prototype-str"
    ),
    pytest.param("kernel", lambda t: _kernel_with(t, gamma=list(map(str, t["kernel"]["gamma"]))), {2}, id="kernel-gamma-numeric-str"),
    pytest.param("kernel", lambda t: _kernel_with(t, gamma=[True] * len(t["kernel"]["gamma"])), {2}, id="kernel-gamma-bool"),
    pytest.param("kernel", lambda t: {**t, "dim": 5}, {3}, id="kernel-dim-mismatch"),
    # a tree's model_fingerprint is a JSON string, and format_version, where
    # present, a JSON integer the reader knows: 1 or 2 for a tree, 1 for a mixture
    pytest.param("axis", lambda t: {**t, "model_fingerprint": [0.5]}, {2}, id="tree-fingerprint-list"),
    pytest.param("axis", lambda t: {**t, "model_fingerprint": 3}, {2}, id="tree-fingerprint-int"),
    pytest.param("kernel", lambda t: {**t, "model_fingerprint": {"a": 0.5}}, {2}, id="kernel-fingerprint-dict"),
    pytest.param("axis", lambda t: {**t, "format_version": "abc"}, {2}, id="tree-format-version-str"),
    pytest.param("axis", lambda t: {**t, "format_version": 3}, {2}, id="tree-format-version-3"),
    pytest.param("kernel", lambda t: {**t, "format_version": True}, {2}, id="kernel-format-version-bool"),
    pytest.param("mixture", lambda m: {**m, "format_version": "1"}, {2}, id="mixture-format-version-str"),
    pytest.param("mixture", lambda m: {**m, "format_version": 1.0}, {2}, id="mixture-format-version-float"),
    # every number list of a mixture takes JSON numbers only, and alpha too
    pytest.param("mixture", lambda m: {**m, "weights": _strings(m["weights"])}, {2}, id="mixture-weights-numeric-str"),
    pytest.param("mixture", lambda m: {**m, "sigma": _strings(m["sigma"])}, {2}, id="mixture-sigma-numeric-str"),
    pytest.param("mixture", lambda m: {**m, "alpha": True}, {2}, id="mixture-alpha-bool"),
    pytest.param(
        "mixture", lambda m: _first_component_with(m, mean=_strings(m["components"][0]["mean"])), {2}, id="mixture-mean-numeric-str"
    ),
    pytest.param(
        "mixture", lambda m: _first_component_with(m, mass=_strings(_uniform_mass(m))), {2}, id="mixture-mass-numeric-str"
    ),
    pytest.param(
        "mixture",
        lambda m: _first_component_with(m, support=_strings(m["components"][0]["support"])),
        {2},
        id="mixture-support-numeric-str",
    ),
    pytest.param(
        "mixture", lambda m: _first_component_with(m, mass=[True] * len(_uniform_mass(m))), {2}, id="mixture-mass-bool"
    ),
    # a mass that is present but bad is rejected, never taken for the uniform mass an absent one implies
    pytest.param("mixture", lambda m: _first_component_with(m, mass=None), {2}, id="mixture-mass-null"),
    pytest.param("mixture", lambda m: _first_component_with(m, mass="abc"), {2}, id="mixture-mass-str"),
    pytest.param("mixture", lambda m: _first_component_with(m, mass=[0.5, 0.5]), {3}, id="mixture-mass-wrong-length"),
    pytest.param("mixture", lambda m: _first_component_with(m, support=[0.5]), {2}, id="mixture-support-flat"),
    pytest.param(
        "mixture",
        lambda m: _first_component_with(m, support=[[True, *row[1:]] for row in m["components"][0]["support"]]),
        {2},
        id="mixture-support-bool-among-numbers",
    ),
    pytest.param("mixture", lambda m: {**m, "weights": "ab"}, {2, 3, 4}, id="mixture-weights-str"),
    pytest.param("mixture", lambda m: {**m, "components": 5}, {2, 3, 4}, id="mixture-components-int"),
    pytest.param("mixture", _component_as_list, {2, 3, 4}, id="mixture-component-list"),
    pytest.param("mixture", lambda m: {**m, "alpha": "z"}, {2, 3, 4}, id="mixture-alpha-str"),
    pytest.param("mixture", lambda m: {**m, "dim": "z"}, {2, 3, 4}, id="mixture-dim-str"),
    pytest.param("mixture", lambda m: {**m, "dim": m["dim"] + 0.2}, {2}, id="mixture-dim-float"),
    pytest.param("mixture", lambda m: [m], {2, 3, 4}, id="mixture-toplevel-list"),
    pytest.param("mixture", _ragged_support, {2, 3, 4}, id="mixture-ragged-support"),
]


@pytest.mark.parametrize("artifact, edit, codes", _MALFORMED)
def test_cli_malformed_artifacts_exit_cleanly(tmp_path, capsys, artifact, edit, codes):
    mix, axis_tree, kernel_tree = tmp_path / "m.json", tmp_path / "t.json", tmp_path / "kt.json"
    run_cli("gen", "b3", "--d", 3, "--out", mix)
    assert run_cli("build", "--mixture", mix, "--objective", "exact-discrete", "--out", axis_tree) == 0
    assert run_cli("build-kernel", "--mixture", mix, "--out", kernel_tree) == 0
    path = {"axis": axis_tree, "kernel": kernel_tree, "mixture": mix}[artifact]
    edited = edit(json.loads(path.read_text()))
    path.write_text(edited if isinstance(edited, str) else json.dumps(edited))
    if artifact == "mixture":
        runs = [
            ("eval", "--mixture", mix, "--tree", axis_tree),
            ("build", "--mixture", mix, "--out", tmp_path / "o.json"),
        ]
    else:
        runs = [("eval", "--mixture", mix, "--tree", path), ("export-dot", "--tree", path)]
    for argv in runs:
        capsys.readouterr()
        assert run_cli(*argv) in codes
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


# Every header key of each tree kind, and every key of its root cut and of
# its first leaf, and those two nodes themselves, as a path into its JSON;
# the number lists gamma and prototype also by entry.
_NODES = [("nodes", 0), ("nodes", 1), ("nodes", 1, "leaf")]
_FUZZ_FIELDS = [("axis", (key,)) for key in ("format_version", "kind", "dim", "n_leaves", "model_fingerprint", "options", "nodes")]
_FUZZ_FIELDS += [("axis", ("options", "objective"))]
_FUZZ_FIELDS += [("axis", ("nodes", 0, key)) for key in ("axis", "theta")] + [("axis", path) for path in _NODES]
_FUZZ_FIELDS += [
    ("kernel", (key,)) for key in ("format_version", "kind", "dim", "n_leaves", "kernel", "model_fingerprint", "seed", "nodes")
]
_FUZZ_FIELDS += [("kernel", ("kernel", "profiles")), ("kernel", ("kernel", "gamma")), ("kernel", ("kernel", "gamma", 0))]
_FUZZ_FIELDS += [("kernel", ("nodes", 0, key)) for key in ("axis", "prototype", "theta", "anchor")]
_FUZZ_FIELDS += [("kernel", ("nodes", 0, "prototype", 0))] + [("kernel", path) for path in _NODES]
# The same trees written as format 1, with a nested root: its cut keys and
# its two children.
_FUZZ_FIELDS += [(kind + "1", ("root",)) for kind in ("axis", "kernel")]
_FUZZ_FIELDS += [("axis1", ("root", key)) for key in ("axis", "theta", "left", "right")]
_FUZZ_FIELDS += [("kernel1", ("root", key)) for key in ("axis", "prototype", "theta", "anchor", "left", "right")]
_FUZZ_FIELDS += [(kind + "1", ("root", "left", "leaf")) for kind in ("axis", "kernel")]
# a string, a numeric string, a bool, null, an int, a float, a list, a dict
_FUZZ_VALUES = ["abc", "0.5", True, None, 3, 0.5, [0.5], {"a": 0.5}]


def test_cli_fuzzed_tree_fields_exit_cleanly(tmp_path, capsys):
    mix = tmp_path / "m.json"
    run_cli("gen", "b3", "--d", 3, "--out", mix)
    trees = {"axis": tmp_path / "t.json", "kernel": tmp_path / "kt.json"}
    assert run_cli("build", "--mixture", mix, "--objective", "exact-discrete", "--out", trees["axis"]) == 0
    assert run_cli("build-kernel", "--mixture", mix, "--out", trees["kernel"]) == 0
    texts = {kind: path.read_text() for kind, path in trees.items()}
    for kind in trees:
        doc = json.loads(texts[kind])
        nodes = iter(doc.pop("nodes"))

        def nest():
            node = next(nodes)
            return node if "leaf" in node else {**node, "left": nest(), "right": nest()}

        texts[kind + "1"] = json.dumps({**doc, "format_version": 1, "root": nest()})
    edited = tmp_path / "edited.json"
    for kind, path in trees.items():
        edited.write_text(texts[kind + "1"])
        assert load_tree(edited).to_dict() == load_tree(path).to_dict()

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.sampled_from(_FUZZ_FIELDS), st.sampled_from(_FUZZ_VALUES))
    def check(field, value):
        kind, path = field
        doc = json.loads(texts[kind])
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        edited.write_text(json.dumps(doc))
        number = any(key in ("theta", "prototype", "gamma") for key in path)
        for argv in (("eval", "--mixture", mix, "--tree", edited), ("export-dot", "--tree", edited)):
            capsys.readouterr()
            code = run_cli(*argv)
            err = capsys.readouterr().err
            assert code in {0, 2, 3, 4} and "Traceback" not in err
            assert code == 0 or err.startswith("error: ")
            if number and isinstance(value, (str, bool)):
                assert code == 2, (path, value, err)
            if value in _RAGGED_ROWS:
                assert code == 2 and "support must be a list of lists of numbers" in err, (path, value, err)

    check()


# Every header key of a discrete (b3) and of a Gaussian mixture and every key
# of its first component, as a path into its JSON; every list also by entry 0.
_MIXTURE_HEADER = ("format_version", "dim", "alpha", "weights", "sigma", "components")
_MIXTURE_COMPONENT = {"discrete": ("kind", "mean", "support", "mass"), "gaussian": ("kind", "mean", "stddev")}
_MIXTURE_FIELDS = [
    (kind, path)
    for kind in _MIXTURE_COMPONENT
    for key in _MIXTURE_HEADER
    for path in ((key,), (key, 0))
    if key in ("weights", "sigma", "components") or len(path) == 1
]
_MIXTURE_FIELDS += [
    (kind, ("components", 0) + path)
    for kind, keys in _MIXTURE_COMPONENT.items()
    for key in keys
    for path in ((key,), (key, 0))
    if key != "kind" or len(path) == 1
]
_MIXTURE_NUMBERS = ("format_version", "dim", "alpha", "weights", "sigma", "mean", "stddev", "support", "mass")
# Ragged rows, where a support or the centers belong: each must be named as
# not a list of lists of numbers.
_RAGGED_ROWS = [[[1.0, 2.0], [3.0]], [1.0, [2.0]]]


def test_cli_fuzzed_mixture_fields_exit_cleanly(tmp_path, capsys):
    mixtures = {"discrete": tmp_path / "b3.json", "gaussian": tmp_path / "g.json"}
    run_cli("gen", "b3", "--d", 3, "--out", mixtures["discrete"])
    # every mass written out, so that the ("mass", 0) paths have an entry to edit
    b3 = json.loads(mixtures["discrete"].read_text())
    for component in b3["components"]:
        component["mass"] = [1.0 / len(component["support"])] * len(component["support"])
    mixtures["discrete"].write_text(json.dumps(b3))
    save_mixture(mixtures["gaussian"], gaussian_battery(0))
    trees = {kind: tmp_path / f"t-{kind}.json" for kind in mixtures}
    for kind, path in mixtures.items():
        assert run_cli("build", "--mixture", path, "--out", trees[kind]) == 0
    texts = {kind: path.read_text() for kind, path in mixtures.items()}
    edited = tmp_path / "edited.json"

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(st.sampled_from(_MIXTURE_FIELDS), st.sampled_from(_FUZZ_VALUES))
    @example(("discrete", ("components", 0, "support")), _RAGGED_ROWS[0])
    @example(("discrete", ("components", 0, "support")), _RAGGED_ROWS[1])
    def check(field, value):
        kind, path = field
        doc = json.loads(texts[kind])
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        edited.write_text(json.dumps(doc))
        number = any(key in _MIXTURE_NUMBERS for key in path[-2:])
        runs = (
            ("build", "--mixture", edited, "--out", tmp_path / "o.json"),
            ("eval", "--mixture", edited, "--tree", trees[kind]),
        )
        for argv in runs:
            capsys.readouterr()
            code = run_cli(*argv)
            err = capsys.readouterr().err
            assert code in {0, 2, 3, 4} and "Traceback" not in err, (path, value, err)
            assert code == 0 or err.startswith("error: "), (path, value, err)
            if number and isinstance(value, (str, bool)):
                assert code == 2, (path, value, err)
            if value in _RAGGED_ROWS:
                assert code == 2 and "support must be a list of lists of numbers" in err, (path, value, err)

    check()


# Dataset field values that fail in their column, by column kind.  float()
# and int() take "1_000" and "١", and int() an integer of any size, where
# np.loadtxt rejects them; the error must name the file line all the same.
# The values in _CSV_CHECKED convert, and the dataset's checks reject them.
_CSV_FUZZ = {
    "float": ["abc", "", "1_000", "١", "0x10", "1d5", "nan", "inf"],
    "label": ["abc", "", "1_000", "١", "1.5", "1e3", "99999999999999999999", "-1"],
}
_CSV_CHECKED = {"nan", "inf", "-1"}
# Every key of a centers file, as a path into its JSON, and what each gets;
# a number in place of a center's coordinate is valid, so that case is left out.
_CENTERS_PATHS = [("format_version",), ("centers",), ("centers", 0), ("centers", 0, 0)]
_CENTERS_FUZZ = [
    (path, value)
    for path in _CENTERS_PATHS
    for value in _FUZZ_VALUES + ["1", 7]
    if len(path) < 3 or isinstance(value, bool) or not isinstance(value, (int, float))
]
_CENTERS_FUZZ += [(("centers",), rows) for rows in _RAGGED_ROWS]


def test_cli_fuzzed_dataset_and_centers_exit_cleanly(tmp_path, capsys):
    truth = MixtureModel.create(
        (Component.gaussian([-5.0, 0.0], [1.0, 1.0]), Component.gaussian([5.0, 1.0], [1.0, 1.0])), [0.5, 0.5]
    )
    mix, tree, data, centers = (tmp_path / name for name in ("m.json", "t.json", "d.csv", "c.json"))
    save_mixture(mix, truth)
    save_dataset(data, sample(truth, 12, seed=0))
    save_centers(centers, truth.means())
    assert run_cli("build", "--mixture", mix, "--out", tree) == 0
    edited, out = tmp_path / "edited", tmp_path / "o.json"

    def fails_cleanly(argv, code):
        capsys.readouterr()
        got = run_cli(*argv)
        err = capsys.readouterr().err
        assert got in {2, 3, 4} and err.startswith("error: ") and err.count("\n") == 1, (argv, got, err)
        assert code is None or got == code, (argv, got, err)
        return err

    lines = data.read_text().splitlines()
    rng = np.random.default_rng(0)
    for kind, values in _CSV_FUZZ.items():
        for value in values:
            for row in rng.integers(1, len(lines), size=2):
                fields = lines[row].split(",")
                fields[-1 if kind == "label" else int(rng.integers(0, 2))] = value
                edited.write_text("\n".join(lines[:row] + [",".join(fields)] + lines[row + 1 :]) + "\n")
                for argv in (
                    ("fit-gmm", "--data", edited, "--k", 2, "--out", out),
                    ("eval-data", "--data", edited, "--tree", tree, "--mixture", mix),
                    ("baseline-imm", "--data", edited, "--centers", centers, "--out", out),
                ):
                    err = fails_cleanly(argv, 2)
                    assert value in _CSV_CHECKED or f": line {row + 1}: " in err, (value, err)

    text = centers.read_text()
    for path, value in _CENTERS_FUZZ:
        doc = json.loads(text)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        edited.write_text(json.dumps(doc))
        number = len(path) == 3 or path == ("format_version",)
        for argv in (
            ("baseline-imm", "--data", data, "--centers", edited, "--out", out),
            ("eval-data", "--data", data, "--tree", tree, "--centers", edited),
        ):
            err = fails_cleanly(argv, 2 if number and isinstance(value, (str, bool)) or value in _RAGGED_ROWS else None)
            assert value not in _RAGGED_ROWS or "centers must be a list of lists of numbers" in err, err


# argv ("{bad}" is a path in a missing directory), environment, exit code
_BAD_INPUTS = [
    pytest.param(("gen", "b3", "--d", 3, "--out", "{bad}"), {}, 2, id="gen-out"),
    pytest.param(("gen", "b3", "--d", 3, "--out", "{tmp}/g.json", "--meta", "{bad}"), {}, 2, id="gen-meta"),
    pytest.param(("fit-gmm", "--data", "{data}", "--k", 2, "--out", "{bad}"), {}, 2, id="fit-gmm-out"),
    pytest.param(("moments", "--data", "{data}", "--k", 2, "--out", "{bad}"), {}, 2, id="moments-out"),
    pytest.param(("build", "--mixture", "{mix}", "--out", "{bad}"), {}, 2, id="build-out"),
    pytest.param(("build-kernel", "--mixture", "{mix}", "--out", "{bad}"), {}, 2, id="build-kernel-out"),
    pytest.param(
        ("baseline-imm", "--data", "{data}", "--centers", "{centers}", "--out", "{bad}"), {}, 2, id="imm-out"
    ),
    pytest.param(("bench", "--sizes", 50, "--k", 2, "--d", 1, "--out", "{bad}"), {}, 2, id="bench-out"),
    pytest.param(("export-dot", "--tree", "{tree}", "--out", "{bad}"), {}, 2, id="export-dot-out"),
    pytest.param(("build-kernel", "--mixture", "{mix}", "--gamma", "abc", "--out", "{tmp}/k.json"), {}, 2, id="gamma"),
    pytest.param(("bench", "--sizes", "a"), {}, 2, id="sizes"),
    # the statistics draw no pairs, so --pairs is an unknown flag
    pytest.param(
        ("build-kernel", "--mixture", "{mix}", "--mode", "mc", "--pairs", 0, "--out", "{tmp}/k.json"),
        {},
        2,
        id="mc-pairs-zero",
    ),
    pytest.param(("moments", "--data", "{data}", "--k", 0, "--out", "{tmp}/mm.json"), {}, 3, id="moments-k-zero"),
    pytest.param(("moments", "--data", "{data}", "--k", 1, "--out", "{tmp}/mm.json"), {}, 3, id="moments-label-above-k"),
    pytest.param(("gen", "b3", "--d", 2, "--out", "{tmp}/x.json"), {"MMDT_SEED": "abc"}, 2, id="seed-env"),
    pytest.param(("eval-data", "--data", "{data}", "--tree", "{ktree}", "--mixture", "{mix}"), {}, 4, id="eval-data-kernel-tree"),
    pytest.param(("eval-data", "--data", "{data}", "--tree", "{tree}"), {}, 3, id="eval-data-no-centers"),
    # three leaves against the mixture's two means
    pytest.param(("eval-data", "--data", "{data}", "--tree", "{tree3}", "--mixture", "{mix}"), {}, 4, id="eval-data-leaf-count"),
    pytest.param(("moments", "--data", "{unlabeled}", "--k", 2, "--out", "{tmp}/mm.json"), {}, 3, id="moments-unlabeled"),
    pytest.param(("build-kernel", "--mixture", "{mix}", "--gamma", "1,2", "--out", "{tmp}/k.json"), {}, 3, id="gamma-count"),
]


@pytest.mark.parametrize("argv, env, code", _BAD_INPUTS)
def test_cli_bad_inputs_exit_cleanly(tmp_path, capsys, monkeypatch, argv, env, code):
    names = ("m.json", "t.json", "t3.json", "kt.json", "d.csv", "u.csv", "c.json")
    mix, tree, tree3, ktree, data, unlabeled, centers = (tmp_path / name for name in names)
    run_cli("gen", "b3", "--d", 3, "--out", mix)
    run_cli("build", "--mixture", mix, "--objective", "exact-discrete", "--out", tree)
    # every row reaches leaf 2, which has no center
    save_tree(tree3, AxisTree(nodes=[AxisCut(0, 1e300), 2, AxisCut(0, 0.0), 0, 1], dim=3))
    run_cli("build-kernel", "--mixture", mix, "--out", ktree)
    drawn = sample(load_mixture(mix), 200, seed=2)
    save_dataset(data, drawn)
    save_dataset(unlabeled, LabeledDataset(drawn.points))
    save_centers(centers, load_mixture(mix).means())
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    bad = tmp_path / "missing" / "out.json"
    paths = {
        "bad": bad, "tmp": tmp_path, "mix": mix, "tree": tree, "tree3": tree3, "ktree": ktree,
        "data": data, "unlabeled": unlabeled, "centers": centers,
    }
    capsys.readouterr()
    try:
        got = run_cli(*(str(a).format(**paths) for a in argv))
    except SystemExit as exc:  # argparse rejects a flag value
        got = exc.code
    err = capsys.readouterr().err
    assert got == code
    assert err.count("error: ") == 1 and "Traceback" not in err
    if "{bad}" in argv:
        assert err.startswith(f"error: cannot write {bad}")


@pytest.mark.parametrize("command", ["bench", "build", "fit-gmm"])
@pytest.mark.parametrize("out", ["missing/out.json", "."], ids=["missing-dir", "is-dir"])
def test_cli_refuses_unwritable_out_before_its_work(tmp_path, capsys, monkeypatch, command, out):
    def unreachable(*args, **kwargs):
        raise AssertionError("the work ran before --out was checked")

    for module, name in ((cli_module, "bench_rows"), (tree_module, "build_mmdt"), (mixture_module, "fit_gmm")):
        monkeypatch.setattr(module, name, unreachable)
    mix, data, bad = tmp_path / "m.json", tmp_path / "d.csv", tmp_path / out
    save_mixture(mix, gaussian_battery(1))
    save_dataset(data, sample(load_mixture(mix), 200, seed=2))
    argv = {
        "bench": ("bench", "--out", bad),
        "build": ("build", "--mixture", mix, "--out", bad),
        "fit-gmm": ("fit-gmm", "--data", data, "--k", 2, "--out", bad),
    }[command]
    capsys.readouterr()
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {bad}")


def test_cli_gen_thm2_rejects_zero_retries(tmp_path, capsys):
    assert run_cli("gen", "thm2", "--max-retries", 0, "--out", tmp_path / "g.json") == 3
    assert capsys.readouterr().err == "error: max_retries must be >= 1\n"
    assert not (tmp_path / "g.json").exists()


def test_cli_import_loads_no_scipy():
    # numpy is the one runtime dependency: a fresh import of the CLI loads
    # no other top-level package outside the standard library.
    src = str(Path(__file__).resolve().parents[1] / "src")
    probe = (
        "import sys\n"
        "def tops(): return {m.partition('.')[0] for m in sys.modules}\n"
        "before = tops()\n"
        "import mmdt.cli\n"
        "print(sorted(tops() - before - set(sys.stdlib_module_names) - {'mmdt', 'numpy'}))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert done.stdout.strip() == "[]"


def test_cli_exit_codes(tmp_path, capsys):
    mix = tmp_path / "m.json"
    tree = tmp_path / "t.json"
    # 2: missing file
    assert run_cli("build", "--mixture", tmp_path / "nope.json", "--out", tree) == 2
    # 2: malformed JSON with line/column
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert run_cli("build", "--mixture", bad, "--out", tree) == 2
    assert "line" in capsys.readouterr().err
    # 3: validation (single component)
    single = MixtureModel.create(
        (__import__("mmdt").Component.gaussian([0.0], [1.0]),), [1.0]
    )
    save_mixture(mix, single)
    assert run_cli("build", "--mixture", mix, "--out", tree) == 3
    assert "two components" in capsys.readouterr().err
    # 3: incompatible objective
    run_cli("gen", "b3", "--d", 2, "--out", mix)
    other = tmp_path / "g.json"
    run_cli("gen", "thm4", "--k", 3, "--q", 6, "--out", other)
    assert run_cli("build", "--mixture", mix, "--objective", "gaussian", "--out", tree) == 3
    # 4: dimension mismatch between tree and mixture
    run_cli("build", "--mixture", mix, "--objective", "exact-discrete", "--out", tree)
    assert run_cli("eval", "--mixture", other, "--tree", tree) == 4


def test_cli_eval_data_and_moments(tmp_path, capsys):
    mix = tmp_path / "m.json"
    tree = tmp_path / "t.json"
    data = tmp_path / "d.csv"
    moments = tmp_path / "mm.json"
    run_cli("gen", "b3", "--d", 4, "--out", mix)
    run_cli("build", "--mixture", mix, "--objective", "exact-discrete", "--out", tree)
    inst_model = load_mixture(mix)
    save_dataset(data, sample(inst_model, 4000, seed=1))
    assert run_cli("moments", "--data", data, "--k", 2, "--out", moments) == 0
    assert load_mixture(moments).k == 2
    assert run_cli("eval-data", "--data", data, "--tree", tree, "--mixture", mix, "--json") == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{") :])
    assert payload["error_vs_labels"] == pytest.approx(1.0 / 8.0, abs=0.03)


def test_eval_data_routes_once(tmp_path, capsys, monkeypatch):
    # Both norms and both error rates read one routing of the rows.
    mix, tree, data = tmp_path / "m.json", tmp_path / "t.json", tmp_path / "d.csv"
    run_cli("gen", "b3", "--d", 3, "--out", mix)
    assert run_cli("build", "--mixture", mix, "--objective", "exact-discrete", "--out", tree) == 0
    save_dataset(data, sample(load_mixture(mix), 200, seed=2))
    routed = []
    route = tree_module.assign_components
    for name, module in list(sys.modules.items()):  # wherever a module holds the router
        if name.startswith("mmdt") and getattr(module, "assign_components", None) is route:
            monkeypatch.setattr(module, "assign_components", lambda t, points: routed.append(len(points)) or route(t, points))
    capsys.readouterr()
    assert run_cli("eval-data", "--data", data, "--tree", tree, "--mixture", mix, "--norm", "both") == 0
    assert routed == [200]
    assert capsys.readouterr().out == _EVAL_DATA_TEXT


_KERNEL_EVAL_TEXT = """\
format_version   1
price            1.003510568336508
price_hat        1.109519536957166
error_rate       0.25
baseline_cost    0.7400572046941359
tree_cost        0.7426552260841398
mc_samples       0
mc_seed          0
fallback_leaves  []
"""

_EVAL_DATA_TEXT = """\
price_l1             1.200000
price_l2sq           1.110895
error_vs_assignment  0.200000
error_vs_labels      0.200000
"""

_AXIS_EVAL_TEXT = """\
price (leaf medians)    1.166667
price (assigned means)  1.166667
price (squared l2)      1.083333
error rate              0.166667
baseline cost           1.000000
tree cost               1.166667
mc samples              0
mc seed                 0
confidence radius       0
bound beta              1.732051
bound enr               3.000000
bound thm1              22.159473
bound thm3              1.000000
"""


def test_cli_text_reports(tmp_path, capsys):
    # One "key  value" line per field in report order, keys padded to the
    # longest: kernel values as Python writes them, eval-data values .6f,
    # the axis report under its labels.
    mix, ktree, tree, data = (tmp_path / name for name in ("m.json", "kt.json", "t.json", "d.csv"))
    run_cli("gen", "b3", "--d", 3, "--out", mix)
    assert run_cli("build-kernel", "--mixture", mix, "--out", ktree) == 0
    assert run_cli("build", "--mixture", mix, "--objective", "exact-discrete", "--out", tree) == 0
    save_dataset(data, sample(load_mixture(mix), 200, seed=2))
    runs = [
        (("eval", "--mixture", mix, "--tree", ktree), _KERNEL_EVAL_TEXT),
        (("eval-data", "--data", data, "--tree", tree, "--mixture", mix), _EVAL_DATA_TEXT),
        (("eval", "--mixture", mix, "--tree", tree), _AXIS_EVAL_TEXT),
    ]
    for argv, text in runs:
        capsys.readouterr()
        assert run_cli(*argv) == 0
        assert capsys.readouterr().out == text


def test_cli_baseline_imm_and_export_dot(tmp_path, capsys):
    mix = tmp_path / "m.json"
    data = tmp_path / "d.csv"
    centers = tmp_path / "c.json"
    tree = tmp_path / "imm.json"
    run_cli("gen", "b3", "--d", 3, "--out", mix)
    model = load_mixture(mix)
    save_dataset(data, sample(model, 2000, seed=3))
    save_centers(centers, model.means())
    assert run_cli("baseline-imm", "--data", data, "--centers", centers, "--out", tree) == 0
    loaded = load_tree(tree)
    assert loaded.n_leaves == 2
    capsys.readouterr()
    assert run_cli("export-dot", "--tree", tree) == 0
    assert capsys.readouterr().out.startswith("digraph")


def test_cli_eval_data_prices_zero_baseline_at_one(tmp_path, capsys):
    # Every point on its center: both costs are 0, and the price is 1.
    data = tmp_path / "d.csv"
    centers = tmp_path / "c.json"
    tree = tmp_path / "imm.json"
    data.write_text("x1,label\n0,0\n0,0\n5,1\n5,1\n")
    save_centers(centers, np.array([[0.0], [5.0]]))
    assert run_cli("baseline-imm", "--data", data, "--centers", centers, "--out", tree) == 0
    capsys.readouterr()
    assert run_cli("eval-data", "--data", data, "--tree", tree, "--centers", centers, "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["price_l1"] == 1.0
    assert payload["price_l2sq"] == 1.0


def test_cli_kernel_pipeline(tmp_path, capsys):
    mix = tmp_path / "m.json"
    ktree = tmp_path / "kt.json"
    dot = tmp_path / "kt.dot"
    run_cli("gen", "thm4", "--k", 2, "--q", 6, "--out", mix)
    assert (
        run_cli("build-kernel", "--mixture", mix, "--kernel", "laplace", "--gamma", "1.5", "--out", ktree)
        == 0
    )
    assert run_cli("eval", "--mixture", mix, "--tree", ktree, "--json") == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{") :])
    assert 0.0 <= payload["error_rate"] <= 1.0
    assert run_cli("export-dot", "--tree", ktree, "--out", dot) == 0
    assert dot.read_text().startswith("digraph")


def test_cli_fit_gmm(tmp_path):
    mix = tmp_path / "fitted.json"
    data = tmp_path / "d.csv"
    truth = gen_b3(2).model
    save_dataset(data, sample(truth, 3000, seed=7))
    assert run_cli("fit-gmm", "--data", data, "--k", 2, "--seed", 1, "--out", mix) == 0
    fitted = load_mixture(mix)
    means = np.sort(fitted.means()[:, 0])
    assert abs(means[0] + 0.5) < 0.2 and abs(means[1] - 0.5) < 0.2


def test_cli_gen_thm2(tmp_path):
    mix = tmp_path / "m.json"
    meta = tmp_path / "meta.json"
    assert run_cli("gen", "thm2", "--k", 2, "--m", 3, "--seed", 5, "--out", mix, "--meta", meta) == 0
    model = load_mixture(mix)
    assert model.k == 2 and model.dim == 8
    targets = json.loads(meta.read_text())["targets"]
    assert targets["enr"] == pytest.approx(2 * (2 * 8 + 3))


def test_mixture_sigma_derived_when_absent(tmp_path):
    inst = gen_thm4(2, 4)
    payload = inst.model.to_dict()
    del payload["sigma"]
    p = tmp_path / "m.json"
    p.write_text(json.dumps(payload))
    model = load_mixture(p)
    np.testing.assert_allclose(model.sigma, inst.model.sigma, rtol=1e-12)


def test_cli_bench_csv(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert run_cli("bench", "--sizes", "500,1000", "--k", 2, "--d", 2, "--out", out) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "method,n,seconds"
    assert len(lines) == 1 + 2 * 3  # one row per (method, n)


def test_cli_seed_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MMDT_SEED", "7")
    from mmdt.cli import make_parser

    args = make_parser().parse_args(["eval", "--mixture", "x", "--tree", "y"])
    assert args.seed == 7


def test_wine_dataset_vendored():
    data = load_dataset(DATA_DIR / "wine.csv")
    assert data.points.shape == (178, 13)
    assert sorted(np.unique(data.labels)) == [0, 1, 2]
    assert np.bincount(data.labels).tolist() == [59, 71, 48]


# sha256 of every CLI artifact below, recorded at commit af305c0 with numpy
# 2.4.6.  Tree JSON (key order included), DOT text and `eval --json` reports
# of both tree kinds must stay byte-identical.  gaussian.eval was re-recorded
# when the axis MC eval moved to one `sample` draw and a squared-l2 baseline
# from the components.  The `gen` mixture and `--meta` JSON and the `moments`
# JSON were recorded at commit a5a28be.  The six tree digests were
# re-recorded when model_fingerprint moved from a hash of the model JSON to
# array_fingerprint; with that field blanked, every tree is unchanged.
# gen-b3, gen-thm4-no-center and moments were re-recorded when a uniform
# mass became implied: with each component's 1/n masses written back, the
# files are byte-identical to the ones before.  The six tree digests were
# re-recorded when tree JSON moved to format 2 (one pre-order node list);
# no axis, threshold, leaf, prototype or anchor moved against the recorded
# format-1 roots, and every DOT and eval digest stayed as it was.
_ARTIFACT_SHA256 = {
    "chebyshev": "bb4bcedd4eb7e9ad87cb0febad65ff75664fbf7771ef84a10a87f9fa6b48835e",
    "chebyshev.dot": "3a3a2d033664335356562f19a2024466d6b0925e420918886669d5ef74a7a7ae",
    "gaussian": "a20c1f56765bef5fde24e8b765471dda52b5099a2a0aa3e37203ec6f828bf6d3",
    "gaussian.dot": "9acb17af4246b48d4593ec6e918ff3321f904a443b3336988c43c940498ed9c0",
    "exact-discrete": "a50f19bf9edf87c4aa93d65004453715a23c265d3c2b22e59be2c701770dff1f",
    "exact-discrete.dot": "807ae624638dc3fbc87bf0aae146f7ee4251823401e3cfb37983731e3bae4fee",
    "kernel-exact": "a5029464baae84081ad5bc0b0525c92468346108b330ca38f40ff77b836820ae",
    "kernel-exact.dot": "523ad9705eab3cef5c62a8475c7dc16a43761b346cba1ecfcf677ae051a0fb46",
    "kernel-mc": "8e73976d00923e76c5c61815a35cda9ddb7a0f76cfb15f84e625364a8d01a318",
    "kernel-mc.dot": "4907d35e04d134e38aa7bb290eeedd50332076a25b8974b5189b143908b78a13",
    "imm": "17a1709dc8309242ef3278ae84ca1b327a696a2fb4c9f9d7eda071cee41adfa2",
    "imm.dot": "a53dcfb7c5fa2b6a8805066bec7bad13ab166c6beebf304b42a6a774fa877351",
    "exact-discrete.eval": "08efd63cf8407b8ac77b87cdc5ddcce4a29764a4822a7ef195953522c77df36a",
    "gaussian.eval": "725ae07958cc90cabc353317de7c975901fdf80c9db707e452bd7b6025bb6d3f",
    "kernel-exact.eval": "2a628625ae32147ffb745dafc7fde2bc90410c70af0305e540b0d4274ff90264",
    "kernel-mc.eval": "82c33f184ef1ed64d2fd834904ca4496dc2f3ff280052a1d14741093c8af383b",
    "gen-thm2": "53f362397101337770557078de1544e08692fc31b7d4d35591a32f185ed81ea4",
    "gen-thm2.meta": "7affa294da870271236dd14dc638212e1c5b10172b532d38bc77c8d791f686cf",
    "gen-thm4": "abe6be2933b690f9480f01bf8244bb2cf05d77c5ae26961973befe924980931f",
    "gen-thm4.meta": "2d44c20df0429d17aed902825439b62f4affbe3c278d79790adcde19def2df87",
    "gen-thm4-no-center": "29c1ec44ed500c523bde20c61149928999e2bb3d8cc38fa5749d6f926af0a541",
    "gen-thm4-no-center.meta": "a13ba1d614f8ac70dadfaa818893a05c17ee1625e080deb9d55c6f5ff01ed0f8",
    "gen-b3": "6ef1d519350294b426f3b4d64427a0018316c56bf37f1e2be0209a054106aafc",
    "gen-b3.meta": "f3f419fd02cf7ab643ed1fb476cce2464da86b94f46a78b1163cded4ce678ef3",
    "moments": "4db3c76c7b96eb1afd69e015c704cb88cbabb2978a7820997d8ae4b98a370b93",
}


def _cli_artifact_digests(tmp_path, capsys) -> dict:
    discrete, ker = translate_battery(5)
    gauss = gaussian_battery(7)
    disc_path, gauss_path = tmp_path / "discrete.json", tmp_path / "gauss.json"
    data, centers = tmp_path / "d.csv", tmp_path / "c.json"
    save_mixture(disc_path, discrete)
    save_mixture(gauss_path, gauss)
    save_dataset(data, sample(gauss, 3000, seed=11))
    save_centers(centers, gauss.means())
    gamma = ",".join(repr(float(g)) for g in ker.gamma)
    builds = {
        "chebyshev": ("build", "--mixture", gauss_path, "--objective", "chebyshev"),
        "gaussian": ("build", "--mixture", gauss_path, "--objective", "gaussian"),
        "exact-discrete": ("build", "--mixture", disc_path, "--objective", "exact-discrete"),
        "kernel-exact": ("build-kernel", "--mixture", disc_path, "--gamma", gamma, "--seed", 3),
        "kernel-mc": ("build-kernel", "--mixture", gauss_path, "--gamma", "0.001", "--seed", 3),
        "imm": ("baseline-imm", "--data", data, "--centers", centers),
    }
    def sha(text) -> str:
        return hashlib.sha256(text if isinstance(text, bytes) else text.encode()).hexdigest()

    digests = {}
    for name, argv in builds.items():
        out = tmp_path / f"{name}.json"
        assert run_cli(*argv, "--out", out) == 0
        digests[name] = sha(out.read_bytes())
        capsys.readouterr()
        assert run_cli("export-dot", "--tree", out) == 0
        digests[f"{name}.dot"] = sha(capsys.readouterr().out)
    evals = {
        "exact-discrete": (disc_path,),
        "gaussian": (gauss_path, "--samples", 20000, "--seed", 5),
        "kernel-exact": (disc_path,),
        "kernel-mc": (gauss_path, "--samples", 2000, "--seed", 5),
    }
    for name, (mix, *flags) in evals.items():
        assert run_cli("eval", "--mixture", mix, "--tree", tmp_path / f"{name}.json", "--json", *flags) == 0
        digests[f"{name}.eval"] = sha(capsys.readouterr().out)
    gens = {
        "thm2": ("thm2", "--k", 3, "--m", 2, "--seed", 4),
        "thm4": ("thm4", "--k", 4, "--q", 6),
        "thm4-no-center": ("thm4", "--k", 3, "--q", 3),
        "b3": ("b3", "--d", 5),
    }
    for name, argv in gens.items():
        out, meta = tmp_path / f"gen-{name}.json", tmp_path / f"gen-{name}.meta.json"
        assert run_cli("gen", *argv, "--out", out, "--meta", meta) == 0
        digests[f"gen-{name}"] = sha(out.read_bytes())
        digests[f"gen-{name}.meta"] = sha(meta.read_bytes())
    moments = tmp_path / "moments.json"
    assert run_cli("moments", "--data", data, "--k", gauss.k, "--out", moments) == 0
    digests["moments"] = sha(moments.read_bytes())
    return digests


def test_cli_artifacts_byte_identical(tmp_path, capsys):
    digests = _cli_artifact_digests(tmp_path, capsys)
    # The format-1 root of every tree built above, as recorded with these
    # digests: a moved tree digest lists the thresholds that moved.
    recorded = json.loads((DATA_DIR / "recorded_trees.json").read_text())["cli"]
    moved = {
        name: moved_thresholds(root, json.loads((tmp_path / f"{name}.json").read_text()))
        for name, root in recorded.items()
        if digests[name] != _ARTIFACT_SHA256[name]
    }
    assert digests == _ARTIFACT_SHA256, f"(node index, axis, old theta, new theta, ulps): {moved}"


def test_build_kernel_mode_flag_is_hidden_and_ignored(tmp_path, capsys):
    mix = tmp_path / "g.json"
    save_mixture(mix, gaussian_battery(7))
    trees = []
    for extra in ((), ("--mode", "exact"), ("--mode", "mc")):
        out = tmp_path / f"k{len(trees)}.json"
        assert run_cli("build-kernel", "--mixture", mix, "--gamma", "0.001", *extra, "--out", out) == 0
        trees.append(out.read_bytes())
    assert trees[0] == trees[1] == trees[2]
    capsys.readouterr()
    with pytest.raises(SystemExit):
        run_cli("build-kernel", "--help")
    usage = capsys.readouterr().out
    assert "--gamma" in usage and "--mode" not in usage and "--pairs" not in usage
