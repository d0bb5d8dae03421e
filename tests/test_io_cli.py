import csv
import io
import json
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

from conftest import DATA_DIR


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
    assert tree.options.objective == "gaussian"
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
