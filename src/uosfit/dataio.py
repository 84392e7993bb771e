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
import re
from dataclasses import dataclass
from itertools import accumulate, pairwise
from pathlib import Path

import numpy as np

from .errors import InvalidSpec, NonFinite, ParseError, RaggedRows, integer_sizes
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
    first column (blank ones only after a non-numeric first cell) and
    skipped.  If every data row starts with a non-numeric cell, that column
    provides the labels.  With ``complex_pairs`` the columns are interleaved
    (re, im) spectrum pairs; they are turned into time-domain signals
    through the unitary inverse DFT.

    A plain numeric file is converted by numpy's C parser in one call.  Any
    file it rejects (a header, labels, quoted cells, ``float()``-only
    spellings such as ``1_000``, blank cells, ragged rows) is read again by
    the checked walker, which yields the same values and the first fault in
    file order.  A leading byte-order mark is encoding, not content.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no such input file: {path}")
    labels = None
    try:
        arr = _parse_plain(path)
        if arr is None:
            with open(path, newline="", encoding="utf-8-sig") as fh:
                arr, labels = _walk(list(csv.reader(fh)))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason}") from None
    if arr is None:
        return DataSet(np.zeros((0, 0)))
    if complex_pairs and arr.shape[1]:
        if arr.shape[1] % 2 != 0:
            raise ParseError("complex spectra need an even number of columns (re, im pairs)")
        spectra = arr[:, 0::2] + 1j * arr[:, 1::2]
        length = spectra.shape[1]
        arr = np.fft.ifft(spectra, axis=1) * math.sqrt(length)
    return DataSet(arr, labels)


# Separators that numpy's parser strips from a cell as whitespace and Python's
# float() does not: "1\x1c" is a number to numpy only.
_NUMPY_ONLY_SPACE = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")
# A byte-order mark and the ASCII whitespace after it.
_LEAD = re.compile(rb"(?:\xef\xbb\xbf)?[ \t\n\r\x0b\x0c]*").match


def _parse_plain(path):
    """The file as one float64 array, or None when it needs the checked walker.

    Apart from those separators, every cell numpy's parser accepts,
    ``float()`` reads to the same double, so an accepted file holds no
    header, no labels and no quotes.  A blank file (``loadtxt`` warns on one)
    and one whose first non-blank character is not ASCII never reach the
    parser: the walker tells whether that one is blank.  The parser gets a
    text handle, never the path, which numpy would decompress by its suffix.
    """
    raw = path.read_bytes()
    lead = _LEAD(raw).end()
    if lead == len(raw) or raw[lead] >= 0x80 or any(c in raw for c in _NUMPY_ONLY_SPACE):
        return None
    del raw  # not held while numpy parses
    with open(path, encoding="utf-8-sig") as fh:
        try:
            return np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
        except ValueError:
            return None


def _walk(rows):
    """``(array, labels)`` from csv rows, or ``(None, None)`` without data rows."""
    # 1-based numbers of the rows holding a non-blank cell; the rest are dropped.
    lines = [i for i, row in enumerate(rows, start=1) if any(map(str.strip, row))]
    if len(lines) < len(rows):
        rows = [rows[i - 1] for i in lines]
    if not rows:
        return None, None

    # The first row is a header when it is one non-number, or when a cell
    # after the first is not a number.  A blank cell counts only after a
    # non-number lead ("name,"): in "1," it is a fault of data row 1.
    first = rows[0]
    lead = _is_number(first[0])
    has_header = (len(first) == 1 and not lead) or any(
        not _is_number(c) and (not lead or c.strip()) for c in first[1:])
    if has_header:
        rows, lines = rows[1:], lines[1:]
    if not rows:
        return None, None

    has_labels = all(not _is_number(row[0]) for row in rows)
    skip = 1 if has_labels else 0
    # numpy converts each string cell with Python's float(), as _is_number does.
    try:
        arr = np.array([row[skip:] for row in rows] if skip else rows, dtype=np.float64)
    except ValueError:
        _raise_first_fault(rows, lines, skip)
        raise
    labels = tuple(row[0].strip() for row in rows) if has_labels else None
    return arr, labels


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
    l, n, ambient_dim, points_per_subspace = integer_sizes(
        l=l, n=n, ambient_dim=ambient_dim, points_per_subspace=points_per_subspace)
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
    """Write one row per point, its label first when kept, by csv.writer
    (CRLF line ends, labels quoted where needed), each number spelt by
    format_float.  A non-finite value raises before the file is opened.
    """
    rows = [list(map(format_float, row)) for row in dataset.vectors.tolist()]
    if with_labels and dataset.labels is not None:
        rows = [[label, *row] for label, row in zip(dataset.labels, rows)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


# printf codes that spell a number as format_float (floats) and str (ints) do.
_NUMBER_CODES = {int: "%d", float: "%.17g"}


@dataclass(frozen=True)
class Ragged:
    """Rows of numbers held flat: ``values`` in row order (a list or a 1-D
    array), ``lengths[i]`` of them in row i.  Serialized as the list of its
    rows would be."""

    values: list
    lengths: list

    def rows(self):
        """The nested list of rows."""
        values = self.values.tolist() if isinstance(self.values, np.ndarray) else self.values
        bounds = accumulate(self.lengths, initial=0)
        return [values[a:b] for a, b in pairwise(bounds)]


def _format_rows(values, lengths, sep):
    """Rows ``[v, ...]`` of ``lengths[i]`` values each, cut from ``values``
    and joined by ``sep``, in one format call.

    Returns None unless every value is an exact int or every value an exact
    float, or ``values`` is a non-empty integer or float64 array.  A
    non-finite float raises as format_float does, the first one in order.
    """
    if isinstance(values, np.ndarray) and values.size:
        code = "%.17g" if values.dtype == np.float64 else "%d" if values.dtype.kind in "iu" else None
        values = values.tolist()
    else:
        types = set(map(type, values))
        code = _NUMBER_CODES.get(types.pop()) if len(types) == 1 else None
    if code is None:
        return None
    # A row's format depends only on its length.
    by_len = {k: "[" + ", ".join([code] * k) + "]" for k in set(lengths)}
    text = sep.join(map(by_len.__getitem__, lengths)) % tuple(values)
    # Finite doubles print as digits, sign, '.', 'e' and '+'; nan and inf hold an 'n'.
    if "n" in text:
        for v in values:
            format_float(v)
    return text


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
            out.append(pad + "  " + json.dumps(str(key)) + ": ")
            _serialize(val, indent + 2, out)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, Ragged):
        rows = _format_rows(obj.values, obj.lengths, ",\n" + pad + "  ")
        if rows is None:
            _serialize(obj.rows(), indent, out)
        else:
            out.append("[\n" + pad + "  " + rows + "\n" + pad + "]")
    elif isinstance(obj, np.ndarray):
        row = _format_rows(obj, [obj.size], "") if obj.ndim == 1 else None
        if row is None:
            _serialize(obj.tolist(), indent, out)
        else:
            out.append(row)
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        row = _format_rows(obj, [len(obj)], "")
        if row is not None:
            out.append(row)
            return
        scalar = all(isinstance(v, (int, float, str, bool, np.integer, np.floating)) for v in obj)
        if scalar:
            parts = []
            for v in obj:
                sub = []
                _serialize(v, 0, sub)
                parts.append("".join(sub))
            out.append("[" + ", ".join(parts) + "]")
        else:
            out.append("[\n")
            for i, val in enumerate(obj):
                out.append(pad + "  ")
                _serialize(val, indent + 2, out)
                out.append(",\n" if i + 1 < len(obj) else "\n")
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


# load_members parses a skipped member's numbers with bool: a C callable that
# returns a shared object, so such a number is neither converted nor kept, nor
# held to int()'s digit limit.
_FULL = json.JSONDecoder()
_SYNTAX_ONLY = json.JSONDecoder(parse_float=bool, parse_int=bool)
_SPACE = json.decoder.WHITESPACE.match


def _past(text, char, at):
    """The index after ``char``, expected at ``at``, and the whitespace after it."""
    if not text.startswith(char, at):
        raise json.JSONDecodeError(f"Expecting {char!r}", text, at)
    return _SPACE(text, at + 1).end()


def load_members(fh, names):
    """The members ``names`` of the JSON object read from ``fh``, as
    ``json.load`` gives them.

    The other members are parsed for syntax alone and dropped as soon as they
    end, their numbers never converted.  A repeated member keeps its last
    value, as in ``json.load``.  A document that is not an object is returned
    whole.  Malformed JSON raises ``json.JSONDecodeError``.
    """
    text = fh.read()
    at = _SPACE(text).end()
    if not text.startswith("{", at):
        return _FULL.decode(text)
    doc = {}
    at = _SPACE(text, at + 1).end()
    more = not text.startswith("}", at)
    while more:
        if not text.startswith('"', at):
            raise json.JSONDecodeError("Expecting a member name", text, at)
        name, at = json.decoder.scanstring(text, at + 1)
        at = _past(text, ":", _SPACE(text, at).end())
        if name in names:
            doc[name], at = _FULL.raw_decode(text, at)
        else:
            at = _SYNTAX_ONLY.raw_decode(text, at)[1]
        at = _SPACE(text, at).end()
        more = text.startswith(",", at)
        if more:
            at = _SPACE(text, at + 1).end()
    at = _past(text, "}", at)
    if at != len(text):
        raise json.JSONDecodeError("Extra data", text, at)
    return doc
