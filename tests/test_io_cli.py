import json
from pathlib import Path

import numpy as np
import pytest

from mmdt import FormatError, MixtureModel, sample
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
