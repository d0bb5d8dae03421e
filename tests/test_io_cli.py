import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmdt import FormatError, LabeledDataset, MixtureModel, sample
from mmdt.adversarial import gen_b3, gen_thm4
from mmdt.cli import main
from mmdt.io import (
    load_centers,
    load_dataset,
    load_mixture,
    load_tree,
    save_centers,
    save_dataset,
    save_mixture,
)

from conftest import DATA_DIR, gaussian_battery, translate_battery


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


def reference_load(text: str):
    """Row-by-row CSV reader with the loader's rules: (points, labels) on
    success, else ValueError carrying the message the loader gives after
    the path."""
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
    data = LabeledDataset(  # raises ValidationError, a ValueError, on bad values
        points=np.array(points, dtype=float).reshape(-1, dim),
        labels=np.array(labels, dtype=int) if has_label else None,
    )
    return data.points, data.labels


MUTATIONS = ("blank", "quote", "space", "short", "long", "oops", "half")


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
    assert tree.root.cut.theta == 0.5 and tree.leaves() == [0, 1]
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


def first_leaf(node: dict) -> dict:
    return node if "leaf" in node else first_leaf(node["left"])


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda root: first_leaf(root).update(leaf=7), "bijection"),
        (lambda root: root.update(axis=3), "cut axis 3"),
        (lambda root: root.update(axis=-1), "cut axis -1"),
        (lambda root: root.update(prototype=[]), "prototype shape (0,)"),
    ],
)
def test_cli_eval_rejects_invalid_kernel_tree(tmp_path, capsys, edit, message):
    mix = tmp_path / "m.json"
    tree = tmp_path / "kt.json"
    run_cli("gen", "b3", "--d", 3, "--out", mix)
    assert run_cli("build-kernel", "--mixture", mix, "--kernel", "gaussian", "--out", tree) == 0
    payload = json.loads(tree.read_text())
    edit(payload["root"])
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


# artifact, edit of its JSON payload, allowed exit codes
_MALFORMED = [
    pytest.param("axis", lambda t: {**t, "root": 5}, {2, 3, 4}, id="tree-root-int"),
    pytest.param("axis", lambda t: {**t, "root": []}, {2, 3, 4}, id="tree-root-list"),
    pytest.param("axis", lambda t: {**t, "root": {**t["root"], "theta": "a"}}, {2, 3, 4}, id="tree-theta"),
    pytest.param("axis", lambda t: {**t, "root": {**t["root"], "axis": None}}, {2, 3, 4}, id="tree-axis"),
    pytest.param(
        "axis",
        lambda t: {**t, "root": {"axis": 0, "theta": 0.0, "left": {"leaf": "x"}, "right": {"leaf": 1}}},
        {2, 3, 4},
        id="tree-leaf-str",
    ),
    pytest.param("axis", lambda t: {**t, "dim": "a"}, {2, 3, 4}, id="tree-dim-str"),
    pytest.param("axis", lambda t: [t], {2, 3, 4}, id="tree-toplevel-list"),
    # JSON 1e400 reads as inf, which int() cannot convert
    pytest.param("axis", lambda t: {**t, "n_leaves": 1e400}, {2, 3, 4}, id="tree-n-leaves-overflow"),
    pytest.param("kernel", _string_gamma, {2, 3, 4}, id="kernel-gamma-str"),
    pytest.param("kernel", lambda t: {**t, "dim": 5}, {3}, id="kernel-dim-mismatch"),
    pytest.param("mixture", lambda m: {**m, "weights": "ab"}, {2, 3, 4}, id="mixture-weights-str"),
    pytest.param("mixture", lambda m: {**m, "components": 5}, {2, 3, 4}, id="mixture-components-int"),
    pytest.param("mixture", _component_as_list, {2, 3, 4}, id="mixture-component-list"),
    pytest.param("mixture", lambda m: {**m, "alpha": "z"}, {2, 3, 4}, id="mixture-alpha-str"),
    pytest.param("mixture", lambda m: {**m, "dim": "z"}, {2, 3, 4}, id="mixture-dim-str"),
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
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
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
    pytest.param(("gen", "b3", "--d", 2, "--out", "{tmp}/x.json"), {"MMDT_SEED": "abc"}, 2, id="seed-env"),
]


@pytest.mark.parametrize("argv, env, code", _BAD_INPUTS)
def test_cli_bad_inputs_exit_cleanly(tmp_path, capsys, monkeypatch, argv, env, code):
    mix, tree, data, centers = (tmp_path / name for name in ("m.json", "t.json", "d.csv", "c.json"))
    run_cli("gen", "b3", "--d", 3, "--out", mix)
    run_cli("build", "--mixture", mix, "--objective", "exact-discrete", "--out", tree)
    save_dataset(data, sample(load_mixture(mix), 200, seed=2))
    save_centers(centers, load_mixture(mix).means())
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    bad = tmp_path / "missing" / "out.json"
    paths = {"bad": bad, "tmp": tmp_path, "mix": mix, "tree": tree, "data": data, "centers": centers}
    capsys.readouterr()
    try:
        got = run_cli(*(str(a).format(**paths) for a in argv))
    except SystemExit as exc:  # argparse rejects a flag value
        got = exc.code
    err = capsys.readouterr().err
    assert got == code
    assert "error: " in err and "Traceback" not in err
    if "{bad}" in argv:
        assert err.startswith(f"error: cannot write {bad}")


def test_cli_gen_thm2_rejects_zero_retries(tmp_path, capsys):
    assert run_cli("gen", "thm2", "--max-retries", 0, "--out", tmp_path / "g.json") == 3
    assert capsys.readouterr().err == "error: max_retries must be >= 1\n"
    assert not (tmp_path / "g.json").exists()


def test_cli_import_loads_no_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    probe = "import sys, mmdt.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
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
# JSON were recorded at commit a5a28be.
_ARTIFACT_SHA256 = {
    "chebyshev": "6d04530dce576696b1596e1646361b082d9e2c8743a71e1d89432a60ca5133e2",
    "chebyshev.dot": "3a3a2d033664335356562f19a2024466d6b0925e420918886669d5ef74a7a7ae",
    "gaussian": "2adcd452ee1e73cccaf199387507a465b539f0ad420e9ce8374dff2f71c67750",
    "gaussian.dot": "9acb17af4246b48d4593ec6e918ff3321f904a443b3336988c43c940498ed9c0",
    "exact-discrete": "346bd55a97d7f447b89a4427263f8d6a6c6b98414ac02a2d68195dd5da92535e",
    "exact-discrete.dot": "807ae624638dc3fbc87bf0aae146f7ee4251823401e3cfb37983731e3bae4fee",
    "kernel-exact": "e6366c64ea21d4c238faf0279290b0cbb2939e87edd2b9add1445abc53de1c4e",
    "kernel-exact.dot": "523ad9705eab3cef5c62a8475c7dc16a43761b346cba1ecfcf677ae051a0fb46",
    "kernel-mc": "55cb59774acaa2ddb015fe5aac7327b22d2ed5b26341a9726913a6cbd37db117",
    "kernel-mc.dot": "4907d35e04d134e38aa7bb290eeedd50332076a25b8974b5189b143908b78a13",
    "imm": "eb978b42fd7194df8e647c35b138eaffe1d0d6a3d9e771ea5189d91bae050b22",
    "imm.dot": "a53dcfb7c5fa2b6a8805066bec7bad13ab166c6beebf304b42a6a774fa877351",
    "exact-discrete.eval": "08efd63cf8407b8ac77b87cdc5ddcce4a29764a4822a7ef195953522c77df36a",
    "gaussian.eval": "725ae07958cc90cabc353317de7c975901fdf80c9db707e452bd7b6025bb6d3f",
    "kernel-exact.eval": "2a628625ae32147ffb745dafc7fde2bc90410c70af0305e540b0d4274ff90264",
    "kernel-mc.eval": "406b72a0deb534e301ec84eca2919b72fd238a15b48ad6927fe7d0f0cbafd1be",
    "gen-thm2": "53f362397101337770557078de1544e08692fc31b7d4d35591a32f185ed81ea4",
    "gen-thm2.meta": "7affa294da870271236dd14dc638212e1c5b10172b532d38bc77c8d791f686cf",
    "gen-thm4": "abe6be2933b690f9480f01bf8244bb2cf05d77c5ae26961973befe924980931f",
    "gen-thm4.meta": "2d44c20df0429d17aed902825439b62f4affbe3c278d79790adcde19def2df87",
    "gen-thm4-no-center": "e49bf06be21aece6442da9dea65549c72a1f2541e8deae0dc3494c49ca54e973",
    "gen-thm4-no-center.meta": "a13ba1d614f8ac70dadfaa818893a05c17ee1625e080deb9d55c6f5ff01ed0f8",
    "gen-b3": "abc4010dd1ba2c275b803e2addd288d319aae5985fd2a7bc46ec6d51e82ca460",
    "gen-b3.meta": "f3f419fd02cf7ab643ed1fb476cce2464da86b94f46a78b1163cded4ce678ef3",
    "moments": "ca47202b70265baede67713904e6a09ae96361ee185062c953b54ef28ff99ada",
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
    assert _cli_artifact_digests(tmp_path, capsys) == _ARTIFACT_SHA256


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
