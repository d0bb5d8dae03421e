"""File formats: mixture/tree/centers JSON, dataset CSV, report JSON.

All JSON artifacts carry ``format_version: 1`` and are written with a fixed
key order and two-space indentation, so identical inputs produce
byte-identical files.  Dataset CSV uses a ``x1..xd[,label]`` header with '.'
decimals; labels are 0-based component indices.
"""

from __future__ import annotations

import csv
import io as _io
import json
import warnings
from pathlib import Path

import numpy as np

from .errors import FormatError, ValidationError
from .kernel import KernelTree
from .mixture import LabeledDataset, MixtureModel
from .tree import AxisTree

_TREE_KINDS = {tree.kind: tree for tree in (AxisTree, KernelTree)}


def dumps_json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def _parse_json(text: str, path) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}") from exc


def save_json(path, payload: dict) -> None:
    Path(path).write_text(dumps_json(payload), encoding="utf-8")


def _load_json(path, parse):
    """parse(JSON of path); a missing, wrong-typed or out-of-range field
    raises FormatError naming the path, while a ValidationError passes
    through."""
    data = _parse_json(_read_text(path), path)
    try:
        return parse(data)
    except ValidationError:
        raise
    except KeyError as exc:
        raise FormatError(f"{path}: missing field {exc}") from exc
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise FormatError(f"{path}: malformed field: {exc}") from exc


def load_mixture(path) -> MixtureModel:
    return _load_json(path, MixtureModel.from_dict)


def save_mixture(path, model: MixtureModel) -> None:
    save_json(path, model.to_dict())


def load_tree(path) -> AxisTree | KernelTree:
    def parse(data: dict) -> AxisTree | KernelTree:
        kind = data.get("kind")
        if kind not in _TREE_KINDS:
            raise FormatError(f"{path}: unknown tree kind {kind!r}")
        return _TREE_KINDS[kind].from_dict(data)

    return _load_json(path, parse)


def save_tree(path, tree: AxisTree | KernelTree) -> None:
    save_json(path, tree.to_dict())


def load_centers(path) -> np.ndarray:
    centers = _load_json(path, lambda data: np.asarray(data["centers"], dtype=float))
    if centers.ndim != 2:
        raise FormatError(f"{path}: centers must be a 2-D array")
    return centers


def save_centers(path, centers: np.ndarray) -> None:
    save_json(path, {"format_version": 1, "centers": np.asarray(centers, dtype=float).tolist()})


def dataset_to_csv(data: LabeledDataset) -> str:
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = [f"x{j + 1}" for j in range(data.dim)]
    if data.labels is not None:
        header.append("label")
    writer.writerow(header)
    for i in range(data.n):
        row = [repr(float(v)) for v in data.points[i]]
        if data.labels is not None:
            row.append(str(int(data.labels[i])))
        writer.writerow(row)
    return buf.getvalue()


def save_dataset(path, data: LabeledDataset) -> None:
    Path(path).write_text(dataset_to_csv(data), encoding="utf-8")


def load_dataset(path) -> LabeledDataset:
    """Read a dataset CSV in one numpy pass.  Blank lines are skipped, there
    are no comment lines, fields may be double-quoted and labels are integers;
    a bad row raises FormatError naming its file line (the header is line 1)."""
    try:
        with open(path, encoding="utf-8") as fh:
            header = [h.strip() for h in next(csv.reader([fh.readline()]), [])]
            has_label = bool(header) and header[-1] == "label"
            dim = len(header) - (1 if has_label else 0)
            if dim < 1 or header[:dim] != [f"x{j + 1}" for j in range(dim)]:
                raise FormatError(f"{path}: expected header x1..xd[,label], got {header}")
            dtype = [("p", "f8", (dim,))] + ([("l", "i8")] if has_label else [])
            with warnings.catch_warnings():  # no data rows: LabeledDataset rejects it below
                warnings.simplefilter("ignore", UserWarning)
                table = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None, quotechar='"', ndmin=1)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}") from exc
    except ValueError as exc:
        raise FormatError(f"{path}: {_first_bad_row(path, len(header), dim) or exc}") from exc
    try:
        return LabeledDataset(points=table["p"], labels=table["l"] if has_label else None)
    except ValidationError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _first_bad_row(path, width: int, dim: int) -> str | None:
    """The first data row with a wrong field count or a field that does not
    convert, by file line (blank lines counted), or None; builds no arrays."""
    with open(path, encoding="utf-8") as fh:
        rows = csv.reader(fh)
        next(rows)
        for lineno, row in enumerate(rows, start=2):
            if not row:
                continue
            if len(row) != width:
                return f"line {lineno} has {len(row)} fields, expected {width}"
            try:
                list(map(float, row[:dim])), list(map(int, row[dim:]))
            except ValueError as exc:
                return f"line {lineno}: {exc}"
    return None
