"""CSV ingestion, synthetic data generation, and deterministic JSON reports.

Numbers in reports are serialized with 17 significant digits so every float
round-trips exactly; identical inputs therefore produce byte-identical
report files (timings live in their own section and are excluded from that
guarantee).
"""

from __future__ import annotations

import csv
import json
import math
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import InvalidSpec, NonFinite, ParseError, RaggedRows
from .subspace import DataSet, Subspace


def _is_number(cell):
    try:
        float(cell)
    except ValueError:
        return False
    return True


def ingest(path, complex_pairs=False) -> DataSet:
    """Read a CSV of one vector per row.

    An optional header row is detected by non-numeric cells outside the
    first column and skipped.  If every data row starts with a non-numeric
    cell, that column provides the labels.  With ``complex_pairs`` the
    columns are interleaved (re, im) spectrum pairs; they are turned into
    time-domain signals through the unitary inverse DFT.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no such input file: {path}")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason}") from None
    # 1-based numbers of the rows holding a non-blank cell; the rest are dropped.
    lines = [i for i, row in enumerate(rows, start=1) if any(map(str.strip, row))]
    if len(lines) < len(rows):
        rows = [rows[i - 1] for i in lines]
    if not rows:
        return DataSet(np.zeros((0, 0)))

    first = rows[0]
    has_header = (len(first) > 1 and any(not _is_number(c) for c in first[1:])) or (
        len(first) == 1 and not _is_number(first[0])
    )
    if has_header:
        rows, lines = rows[1:], lines[1:]
    if not rows:
        return DataSet(np.zeros((0, 0)))

    has_labels = all(not _is_number(row[0]) for row in rows)
    skip = 1 if has_labels else 0
    # numpy converts each string cell with Python's float(), as _is_number does.
    try:
        arr = np.array([row[skip:] for row in rows] if skip else rows, dtype=np.float64)
    except ValueError:
        _raise_first_fault(rows, lines, skip)
        raise
    labels = tuple(row[0].strip() for row in rows) if has_labels else None
    if complex_pairs:
        if arr.shape[1] % 2 != 0:
            raise ParseError("complex spectra need an even number of columns (re, im pairs)")
        spectra = arr[:, 0::2] + 1j * arr[:, 1::2]
        length = spectra.shape[1]
        arr = np.fft.ifft(spectra, axis=1) * math.sqrt(length)
    return DataSet(arr, labels)


def _raise_first_fault(rows, lines, skip):
    """Raise the error of the first ragged row or non-numeric cell, in file order."""
    width = len(rows[0])
    for lineno, row in zip(lines, rows):
        if len(row) != width:
            raise RaggedRows(f"row {lineno} has {len(row)} columns, expected {width}")
        for col, cell in enumerate(row[skip:], start=skip + 1):
            if not _is_number(cell):
                raise ParseError(f"row {lineno}, column {col}: not a number: {cell!r}")


def generate(l, n, ambient_dim, points_per_subspace, noise_sigma=0.0, seed=0):
    """Sample a union-of-subspaces data set with known ground truth.

    Draws ``l`` random subspaces of dimension ``n`` (``Subspace.span`` of
    Gaussian rows), samples ``points_per_subspace`` points from each with standard
    Gaussian coefficients, and adds isotropic Gaussian noise of deviation
    ``noise_sigma``.  Returns ``(DataSet, truth)`` where ``truth[i]`` is the
    generating subspace index; the data set labels are "s<k>" strings.
    Deterministic per seed: an int >= 0, or a sequence of them.
    """
    if l < 1 or points_per_subspace < 1:
        raise InvalidSpec("l and points_per_subspace must be >= 1")
    if ambient_dim < 1:
        raise InvalidSpec("ambient_dim must be >= 1")
    if n < 0 or n > ambient_dim:
        raise InvalidSpec("need 0 <= n <= ambient_dim")
    if not (math.isfinite(noise_sigma) and noise_sigma >= 0):
        raise InvalidSpec("noise_sigma must be finite and >= 0")

    try:
        rng = np.random.default_rng(seed)
    except ValueError:
        raise InvalidSpec(f"seed must be >= 0, got {seed!r}") from None
    blocks, labels = [], []
    for k in range(l):
        basis = Subspace.span(rng.standard_normal((n, ambient_dim))).basis
        pts = rng.standard_normal((points_per_subspace, n)) @ basis
        if noise_sigma > 0:
            pts = pts + noise_sigma * rng.standard_normal(pts.shape)
        blocks.append(pts)
        labels.extend([f"s{k}"] * points_per_subspace)
    vectors = np.vstack(blocks)
    truth = np.repeat(np.arange(l), points_per_subspace)
    return DataSet(vectors, tuple(labels)), truth


def format_float(x) -> str:
    """17-significant-digit decimal form; round-trips every finite double."""
    x = float(x)
    if not math.isfinite(x):
        raise NonFinite(f"cannot serialize non-finite value {x!r}")
    return format(x, ".17g")


def write_dataset_csv(path, dataset: DataSet, with_labels=True):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for i in range(dataset.m):
            row = [format_float(v) for v in dataset.vectors[i]]
            if with_labels and dataset.labels is not None:
                row = [dataset.labels[i]] + row
            writer.writerow(row)


_NUMBER_TYPES = {int, float}


def _join_numbers(seq):
    """``[a, b, ...]`` for a list of Python ints and floats."""
    return "[" + ", ".join([format_float(v) if type(v) is float else str(v) for v in seq]) + "]"


def _serialize(obj, indent, out):
    pad = " " * indent
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, val) in enumerate(obj.items()):
            out.append(pad + "  " + f'"{key}": ')
            _serialize(val, indent + 2, out)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        # Lists of Python numbers, flat or one level deep, are joined in one
        # go.  Exact types: bool and numpy scalars take the general path.
        types = set(map(type, seq))
        if types <= _NUMBER_TYPES:
            out.append(_join_numbers(seq))
            return
        if types == {list} and set(map(type, chain.from_iterable(seq))) <= _NUMBER_TYPES:
            sep = ",\n" + pad + "  "
            out.append("[\n" + pad + "  " + sep.join(map(_join_numbers, seq)) + "\n" + pad + "]")
            return
        scalar = all(isinstance(v, (int, float, str, bool, np.integer, np.floating)) for v in seq)
        if scalar:
            parts = []
            for v in seq:
                sub = []
                _serialize(v, 0, sub)
                parts.append("".join(sub))
            out.append("[" + ", ".join(parts) + "]")
        else:
            out.append("[\n")
            for i, val in enumerate(seq):
                out.append(pad + "  ")
                _serialize(val, indent + 2, out)
                out.append(",\n" if i + 1 < len(seq) else "\n")
            out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def to_json(obj) -> str:
    out = []
    _serialize(obj, 0, out)
    out.append("\n")
    return "".join(out)


def write_json(path, obj):
    text = to_json(obj)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text
