"""File formats: mixture/tree/centers JSON, dataset CSV, report JSON.

All JSON artifacts carry ``format_version`` (2 for trees, whose nodes are
one list in pre-order; 1 otherwise) and are written with a fixed key order
and two-space indentation, so identical inputs produce byte-identical files.
Dataset CSV uses a ``x1..xd[,label]`` header with '.' decimals; labels are
0-based component indices.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import warnings
from pathlib import Path

import numpy as np

from .errors import FormatError, ValidationError
from .kernel import KernelTree
from .mixture import LabeledDataset, MixtureModel, check_format_version, json_floats
from .tree import AxisTree

_TREE_KINDS = {tree.kind: tree for tree in (AxisTree, KernelTree)}


def dumps_json(payload: dict) -> str:
    """Exactly ``json.dumps(payload, indent=2) + "\\n"`` for str-keyed
    payloads, without the pure-Python indent encoder's walk over every float."""
    chunks: list[str] = []
    _indented(payload, "\n", chunks)
    chunks.append("\n")
    return "".join(chunks)


def _indented(obj, pad: str, out: list[str]) -> None:
    """Append the JSON of obj to out; pad is a newline and obj's indentation.
    One join at the end, not one per level, keeps large strings from being
    copied at every level of nesting."""
    inner = pad + "  "
    if isinstance(obj, dict):
        opening, closing, items = "{", "}", [(json.dumps(key) + ": ", value) for key, value in obj.items()]
    elif isinstance(obj, (list, tuple)):
        matrix = _float_matrix(obj, pad)
        if matrix:
            out.append(matrix)
            return
        opening, closing, items = "[", "]", [("", value) for value in obj]
    else:
        out.append(json.dumps(obj))
        return
    out.append(opening)
    for i, (head, value) in enumerate(items):
        out.append(("," if i else "") + inner + head)
        _indented(value, inner, out)
    out.append((pad if items else "") + closing)


def _float_matrix(obj, pad: str) -> str | None:
    """The JSON of obj at indentation pad, written by one %-format of all its
    numbers, when obj is a non-empty list of finite floats or of equally long
    such lists, such as a support; otherwise None.  json spells nan and inf
    its own way, so only finite floats take this path."""
    if all(issubclass(t, (list, tuple)) for t in set(map(type, obj))):
        width = len(obj[0]) if obj else 0
        if not width or set(map(len, obj)) != {width}:
            return None
        floats = tuple(itertools.chain.from_iterable(obj))
        item = _list_template(width, pad + "  ", "%r")
    else:
        floats, item = tuple(obj), "%r"
    types = set(map(type, floats))
    if not all(issubclass(t, float) for t in types) or not all(map(math.isfinite, floats)):
        return None
    if types != {float}:  # %r of a float subclass such as np.float64 is not its float repr
        floats = tuple(map(float, floats))
    return _list_template(len(obj), pad, item) % floats


def _list_template(n: int, pad: str, item: str) -> str:
    inner = pad + "  "
    return "[" + inner + ("," + inner).join([item] * n) + pad + "]"


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def write_text(path, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc}") from exc


def check_writable(path) -> None:
    """Raise FormatError unless path names a file in an existing, writable
    directory, so that a command can refuse its output before its work."""
    path = Path(path)
    if path.is_dir():
        raise FormatError(f"cannot write {path}: it is a directory")
    if not path.parent.is_dir():
        raise FormatError(f"cannot write {path}: no directory {path.parent}")
    if not os.access(path.parent, os.W_OK):
        raise FormatError(f"cannot write {path}: directory {path.parent} is not writable")


def save_json(path, payload: dict) -> None:
    write_text(path, dumps_json(payload))


def _load_json(path, parse):
    """parse(JSON of path); malformed JSON, nesting too deep for the parser
    (a format-1 caterpillar tree of about 990 leaves), and a missing,
    wrong-typed or out-of-range field raise FormatError naming the path,
    while a ValidationError passes through."""
    text = _read_text(path)
    try:
        return parse(json.loads(text))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}") from exc
    except ValidationError:
        raise
    except RecursionError as exc:
        raise FormatError(f"{path}: nested too deeply") from exc
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
    def parse(data: dict) -> np.ndarray:
        check_format_version(data)
        return json_floats(data, "centers", ndim=2)

    return _load_json(path, parse)


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


_INT64 = range(-(2**63), 2**63)


def _first_bad_row(path, width: int, dim: int) -> str | None:
    """The first data row with a wrong field count or a field that does not
    convert, by file line (blank lines counted), or None; builds no arrays.
    A field converts as np.loadtxt converts it: float() and int() also take
    digit separators and non-ASCII digits, and int() any size."""
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
            for j, field in enumerate(row):
                kind = "int64" if j >= dim else "float64"
                if "_" in field or not field.strip().isascii() or (kind == "int64" and int(field) not in _INT64):
                    return f"line {lineno}: could not convert string {field!r} to {kind}"
    return None
