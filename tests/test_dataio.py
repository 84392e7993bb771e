"""Byte-level pins for the report serialiser and the CSV reader."""

import csv
import io
import json
import math
import re
import warnings
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from uosfit import DataSet, NonFinite, ParseError, RaggedRows, ingest
from uosfit import dataio
from uosfit.dataio import Ragged, format_float, load_members, to_json, write_dataset_csv


def golden_object():
    return {
        "empty_dict": {},
        "empty_list": [],
        "floats": [0.1, -0.0, 1e-300, 2.5e17, 1.0, -3.0, 5e-324],
        "ints": [0, -7, 12345678901234567890],
        "mixed": [1, 2.5, 'a"b', True, False],
        "labels": ["s0", "s1"],
        "nested": {"rows": [[1.0, 2.0], [], [3]], "deep": {"x": None, "y": "café"}},
        "flat_lists": [[1, 2.5], [0.5], [7]],
        "deeper": [[[1.0], []], []],
        "list_of_dicts": [{"a": 1}, {}],
        "flags": [True, False],
        "none": None,
        "yes": True,
        "no": False,
        "np_scalars": [np.float64(0.25), np.int64(3), np.float32(0.1)],
        "np_scalar": np.float64(1.5),
        "np_int": np.int32(-2),
        "array": np.array([[1.0, 2.0], [3.0, 4.0]]),
        "tuple": (1, 2.0),
    }


# Written by the recursive per-scalar serialiser (``_reference_json`` below);
# to_json must match it.
GOLDEN_JSON = (
    '{\n  "empty_dict": {},\n  "empty_list": [],\n'
    '  "floats": [0.10000000000000001, -0, 1e-300, 2.5e+17, 1, -3, 4.9406564584124654e-324],\n'
    '  "ints": [0, -7, 12345678901234567890],\n  "mixed": [1, 2.5, "a\\"b", true, false],\n'
    '  "labels": ["s0", "s1"],\n  "nested": {\n    "rows": [\n      [1, 2],\n      [],\n'
    '      [3]\n    ],\n    "deep": {\n      "x": null,\n      "y": "caf\\u00e9"\n    }\n  },\n'
    '  "flat_lists": [\n    [1, 2.5],\n    [0.5],\n    [7]\n  ],\n'
    '  "deeper": [\n    [\n      [1],\n      []\n    ],\n    []\n  ],\n'
    '  "list_of_dicts": [\n    {\n      "a": 1\n    },\n    {}\n  ],\n'
    '  "flags": [true, false],\n  "none": null,\n  "yes": true,\n  "no": false,\n'
    '  "np_scalars": [0.25, 3, 0.10000000149011612],\n  "np_scalar": 1.5,\n'
    '  "np_int": -2,\n  "array": [\n    [1, 2],\n    [3, 4]\n  ],\n  "tuple": [1, 2]\n}\n'
)


_SCALARS = (int, float, str, bool, np.integer, np.floating)


def _reference_json(obj, indent=0):
    """The report format written by recursion, one scalar at a time: a list
    of scalars on one line, any other list or dict one member a line."""
    pad = " " * indent
    if obj is None or isinstance(obj, bool):
        return {None: "null", True: "true", False: "false"}[obj]
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, Ragged):
        return _reference_json(obj.rows(), indent)
    if isinstance(obj, dict):
        members = [f"{pad}  {json.dumps(key)}: {_reference_json(val, indent + 2)}"
                   for key, val in obj.items()]
        return "{\n" + ",\n".join(members) + f"\n{pad}}}" if members else "{}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        if all(isinstance(v, _SCALARS) for v in obj):
            return "[" + ", ".join(map(_reference_json, obj)) + "]"
        items = [f"{pad}  {_reference_json(val, indent + 2)}" for val in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


numbers = st.one_of(st.integers(), st.floats(allow_nan=False, allow_infinity=False))
number_lists = st.one_of(
    st.lists(numbers, max_size=12),
    st.lists(st.integers(), max_size=12),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=12),
)


class TestToJson:
    def test_golden_string(self):
        assert to_json(golden_object()) == GOLDEN_JSON
        assert _reference_json(golden_object()) + "\n" == GOLDEN_JSON

    @pytest.mark.parametrize("bad", [
        [1.0, math.nan],
        [math.inf],
        [[1.0], [2.0, -math.inf]],
        [1, np.float64(math.nan)],
    ])
    def test_non_finite_in_list_raises(self, bad):
        with pytest.raises(NonFinite):
            to_json({"v": bad})

    def test_nan_deep_in_a_block_raises_like_format_float(self):
        rows = [[float(i), i, -0.5] for i in range(1000)]
        rows[737][2] = math.nan
        rows[901][0] = math.inf
        with pytest.raises(NonFinite, match=r"^cannot serialize non-finite value nan$"):
            to_json({"v": rows})

    @settings(max_examples=80, deadline=None)
    @given(seq=number_lists)
    def test_flat_lists_match_per_scalar_join(self, seq):
        assert to_json({"v": seq}) == '{\n  "v": ' + _reference_json(seq) + "\n}\n"

    @settings(max_examples=80, deadline=None)
    @given(rows=st.lists(number_lists, min_size=1, max_size=8))
    def test_nested_lists_match_per_scalar_join(self, rows):
        block = "[\n    " + ",\n    ".join(map(_reference_json, rows)) + "\n  ]"
        assert to_json({"v": rows}) == '{\n  "v": ' + block + "\n}\n"


def _ragged(rows):
    return Ragged(list(chain.from_iterable(rows)), list(map(len, rows)))


def _nested(value, depth):
    """``value`` inside ``depth`` alternating dicts and lists, for indentation."""
    for level in range(depth):
        value = {"k": value} if level % 2 == 0 else [value, 1]
    return value


ragged_rows = st.lists(st.one_of(
    st.lists(st.integers(), max_size=6),
    st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.just(-0.0), max_size=6),
    st.lists(numbers, max_size=6),
    st.just([]),
), max_size=8)


class TestRagged:
    """A ragged block serializes to the same text as the list of its rows."""

    @settings(max_examples=150, deadline=None)
    @given(rows=ragged_rows, depth=st.integers(0, 4))
    @example(rows=[], depth=0)
    @example(rows=[[], [], []], depth=1)
    @example(rows=[[-0.0, 0.0], [], [3]], depth=2)
    def test_matches_the_list_of_its_rows(self, rows, depth):
        block = _ragged(rows)
        assert block.rows() == rows
        assert to_json(_nested(block, depth)) == to_json(_nested(rows, depth))
        spelt = "[\n    " + ",\n    ".join(map(_reference_json, rows)) + "\n  ]" if rows else "[]"
        assert to_json({"v": block}) == '{\n  "v": ' + spelt + "\n}\n"

    @settings(max_examples=80, deadline=None)
    @given(rows=ragged_rows.filter(any), bad=st.sampled_from([math.nan, math.inf, -math.inf]),
           depth=st.integers(0, 3), data=st.data())
    def test_non_finite_is_refused_like_format_float(self, rows, bad, depth, data):
        row = data.draw(st.sampled_from([r for r in rows if r]))
        row[data.draw(st.integers(0, len(row) - 1))] = bad
        with pytest.raises(NonFinite) as want:
            format_float(bad)
        for value in (rows, _ragged(rows)):
            with pytest.raises(NonFinite, match=f"^{re.escape(str(want.value))}$"):
                to_json(_nested(value, depth))

    def test_other_values_take_the_general_path(self):
        rows = [[np.float64(0.5), True], [], [np.int64(3)]]
        assert to_json({"v": _ragged(rows)}) == to_json({"v": rows})


# Keys and strings hold quotes, backslashes, control characters and non-ASCII.
awkward_text = st.text(st.sampled_from('"\\/\n\t\x00\x1f\x7f a\u00e9\u2028\U0001f600')
                       | st.characters(), max_size=4)
any_float = st.floats() | st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308, math.nan, -math.inf])
report_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), any_float, awkward_text,
    st.integers(-2**63, 2**63 - 1).map(np.int64), any_float.map(np.float64),
    st.floats(width=32).map(np.float32),
)
report_leaves = st.one_of(
    report_scalars,
    st.lists(st.integers(), min_size=1, max_size=5),
    st.lists(any_float, min_size=1, max_size=5),
    st.lists(st.lists(st.integers() | any_float, max_size=4), max_size=4).map(_ragged),
    st.lists(st.lists(report_scalars, max_size=3), max_size=3).map(_ragged),
    st.binary(max_size=1),
)
report_documents = st.recursive(
    report_leaves,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(awkward_text, inner, max_size=3),
    max_leaves=16,
)


def _written(write, obj):
    """The text ``write`` makes of ``obj``, or the type and message of its error."""
    try:
        return write(obj)
    except (NonFinite, TypeError) as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(doc=report_documents)
@example(doc={'a"b': 1, "c\\d": [1.0], "e\nf": "\u00e9", "\u00e9": {}})
@example(doc={"k": [[1.0, 2.5], [3.0]], "r": [{"x": [[1, 2], []]}]})
def test_to_json_matches_the_reference_writer(doc):
    reference = _written(_reference_json, doc)
    if isinstance(reference, str):
        reference += "\n"
        json.loads(reference)
    assert _written(to_json, doc) == reference


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=12,
)
member_names = st.sampled_from(["mode", "codes", "objective", "", "m\u00e9", 'a"b'])
spaces = st.sampled_from(["", " ", "\n  ", "\t\r\n"])


@st.composite
def json_objects(draw):
    """Text of a JSON object whose members may repeat, spaced at random."""
    members = draw(st.lists(st.tuples(member_names, json_values), max_size=6))
    space, indent = draw(spaces), draw(st.sampled_from([None, 1]))
    colon = space + ":" + space
    body = ("," + space).join(json.dumps(name) + colon + json.dumps(value, indent=indent)
                              for name, value in members)
    return space + "{" + space + body + space + "}" + space


def _loaded(text, names):
    return load_members(io.StringIO(text), names)


class TestLoadMembers:
    """load_members reads what json.loads reads, for the members it keeps."""

    @settings(max_examples=200, deadline=None)
    @given(text=json_objects(), names=st.sets(member_names))
    def test_kept_members_match_json_loads(self, text, names):
        want = {name: value for name, value in json.loads(text).items() if name in names}
        # repr tells 1 from 1.0, -0.0 from 0.0 and shows nan
        assert repr(_loaded(text, names)) == repr(want)

    @settings(max_examples=60, deadline=None)
    @given(text=json_objects(), data=st.data())
    def test_malformed_text_fails_as_json_loads_does(self, text, data):
        cut = data.draw(st.integers(0, len(text)))
        bad = data.draw(st.sampled_from([text[:cut], text[:cut] + "x" + text[cut:],
                                         text[:cut] + text[cut + 1:]]))
        try:
            want = json.loads(bad)
        except ValueError:
            with pytest.raises(ValueError):
                _loaded(bad, {"mode", "codes"})
        else:
            got = _loaded(bad, {"mode", "codes"})
            if isinstance(want, dict):
                want = {k: v for k, v in want.items() if k in ("mode", "codes")}
            assert repr(got) == repr(want)

    @pytest.mark.parametrize("text", [
        '{"a" 1}', '{"a": 1,}', '{"a": 1} x', '{"a": 1 "b": 2}', "{1: 2}", "", "{",
        # one stray character where a delimiter or a quote belongs
        '{"a" x 1}', '{"a": 1 x"b": 2}', '{xa": 1}',
        '{"mode": "x", "codes": [1.5, ]}', '{"codes": [1.5e], "mode": "x"}',
    ])
    def test_malformed_members_are_refused(self, text):
        with pytest.raises(json.JSONDecodeError):
            json.loads(text)
        with pytest.raises(json.JSONDecodeError):
            _loaded(text, {"mode"})

    def test_a_document_that_is_not_an_object_is_returned_whole(self):
        assert _loaded(" [1, 2.5] ", {"mode"}) == [1, 2.5]


def _reference_csv(path, dataset, with_labels=True):
    """The per-value writer: format_float on each number, csv.writer per row."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for i in range(dataset.m):
            row = [format_float(v) for v in dataset.vectors[i]]
            if with_labels and dataset.labels is not None:
                row = [dataset.labels[i]] + row
            writer.writerow(row)


def _unchecked(vectors):
    """A DataSet holding ``vectors`` as given, past the finiteness check."""
    out = object.__new__(DataSet)
    object.__setattr__(out, "vectors", np.asarray(vectors, dtype=np.float64))
    object.__setattr__(out, "labels", None)
    return out


# Written by the per-value writer: \r\n ends, a quoted label, 17 digits.
GOLDEN_CSV = (
    b'"a,""b""",-0,1.9999999999999939e-310,0.10000000000000001\r\n'
    b"s1,1.5000000000000001e+300,-3,4.9406564584124654e-324\r\n"
)


class TestWriteDatasetCsv:
    def test_golden_bytes(self, tmp_path):
        data = DataSet([[-0.0, 2e-310, 0.1], [1.5e300, -3.0, 5e-324]], labels=('a,"b"', "s1"))
        write_dataset_csv(tmp_path / "d.csv", data)
        assert (tmp_path / "d.csv").read_bytes() == GOLDEN_CSV

    @settings(max_examples=80, deadline=None)
    @given(
        rows=st.integers(0, 4).flatmap(lambda k: st.lists(
            st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=k, max_size=k),
            max_size=6)),
        labels=st.lists(st.text(max_size=4), min_size=6, max_size=6),
        with_labels=st.booleans(),
    )
    def test_matches_per_value_writer(self, tmp_path_factory, rows, labels, with_labels):
        width = len(rows[0]) if rows else 3
        data = DataSet(np.array(rows, dtype=np.float64).reshape(len(rows), width),
                       labels=labels[:len(rows)])
        d = tmp_path_factory.mktemp("csv")
        write_dataset_csv(d / "got.csv", data, with_labels=with_labels)
        _reference_csv(d / "want.csv", data, with_labels=with_labels)
        assert (d / "got.csv").read_bytes() == (d / "want.csv").read_bytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_raises_like_format_float(self, tmp_path, bad):
        vectors = np.ones((500, 3))
        vectors[321, 1] = bad
        with pytest.raises(NonFinite, match=r"^cannot serialize non-finite value"):
            write_dataset_csv(tmp_path / "d.csv", _unchecked(vectors))
        assert not (tmp_path / "d.csv").exists()  # no half-written file


def _is_float_text(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


finite = st.floats(allow_nan=False, allow_infinity=False)
labels = st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True).filter(
    lambda s: not _is_float_text(s))


@st.composite
def datasets(draw):
    m = draw(st.integers(1, 6))
    dim = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(finite, min_size=dim, max_size=dim),
                         min_size=m, max_size=m))
    names = draw(st.one_of(st.none(), st.lists(labels, min_size=m, max_size=m)))
    return DataSet(np.array(rows, dtype=np.float64), names)


def _walker_only(path):
    """``ingest`` without numpy's parser: every file takes the checked walker."""
    with open(path, newline="", encoding="utf-8") as fh:
        arr, labels = dataio._walk(list(csv.reader(fh)))
    return DataSet(np.zeros((0, 0)) if arr is None else arr, labels)


def _outcome(read, path):
    try:
        data = read(path)
    except Exception as exc:  # noqa: BLE001 - the outcome being compared
        return type(exc), str(exc)
    return data.vectors.shape, data.vectors.tobytes(), data.labels


# Inputs around the edge of numpy's parser, with the values and labels they read to.
EDGE_INPUTS = {
    "whitespace-only-line": ("1,2\n \t \n3,4\n", [[1, 2], [3, 4]], None),
    "comma-line": ("1,2\n,\n3,4\n", [[1, 2], [3, 4]], None),
    "full-width-digits": ("\uff11,2\n3,\uff14.5\n", [[1, 2], [3, 4.5]], None),
    "quoted-cells": ('"1","2"\n3,"-0"\n', [[1, 2], [3, -0.0]], None),
    "crlf": ("1,2\r\n3,4\r\n", [[1, 2], [3, 4]], None),
    "header": ("x,y\n1,2\n3,4\n", [[1, 2], [3, 4]], None),
    "labels": ("a,1,2\nb,3,4\n", [[1, 2], [3, 4]], ("a", "b")),
    "underscore-and-blank-lines": ("\n1_0,2\n\n3,4\n\n", [[10, 2], [3, 4]], None),
}

# Characters that make cells numpy and float() may read differently.
csv_text = st.text(alphabet="0123456789.e-+ ,\n\r\"\tainfx_\uff11\u00a0\x1c\x1f", max_size=40)

# Doubles at the ends of the range: signed zeros, subnormals, 2**-1000, 2**1000.
extreme = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1000, -(2.0**-1000), 2.0**1000,
                     -(2.0**1000), 2.2250738585072009e-308, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestIngestExact:
    @pytest.mark.parametrize("case", sorted(EDGE_INPUTS))
    def test_edge_inputs_read_exactly(self, tmp_path, case):
        text, want, want_labels = EDGE_INPUTS[case]
        p = tmp_path / "d.csv"
        p.write_bytes(text.encode("utf-8"))
        data = ingest(p)
        assert data.vectors.tobytes() == np.array(want, dtype=np.float64).tobytes()
        assert data.vectors.shape == (2, 2)
        assert data.labels == want_labels

    @pytest.mark.parametrize("text", ["", "\n", "\n \r\n\t\n"])
    def test_file_without_rows_reads_empty_without_warning(self, tmp_path, text):
        p = tmp_path / "d.csv"
        p.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data = ingest(p)
        assert data.vectors.shape == (0, 0)

    @settings(max_examples=300, deadline=None)
    @given(text=csv_text)
    def test_reads_like_the_checked_walker(self, tmp_path_factory, text):
        p = tmp_path_factory.mktemp("fuzz") / "d.csv"
        p.write_bytes(text.encode("utf-8"))
        assert _outcome(ingest, p) == _outcome(_walker_only, p)

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 5).flatmap(
        lambda k: st.lists(st.lists(extreme, min_size=k, max_size=k), min_size=1, max_size=6)))
    def test_17_digit_text_reads_back_bitwise(self, tmp_path_factory, rows):
        p = tmp_path_factory.mktemp("g17") / "d.csv"
        p.write_text("".join(",".join("%.17g" % v for v in row) + "\n" for row in rows))
        assert ingest(p).vectors.tobytes() == np.array(rows, dtype=np.float64).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(data=datasets())
    def test_csv_round_trip_is_bitwise(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("rt") / "d.csv"
        write_dataset_csv(path, data)
        back = ingest(path)
        assert back.vectors.shape == data.vectors.shape
        assert back.vectors.tobytes() == data.vectors.tobytes()
        assert back.labels == data.labels

    def test_cells_parse_like_python_float(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text(" 1.5 ,1_000,-0\n2e-310,+3,.25\n")
        data = ingest(p)
        want = np.array([[1.5, 1000.0, -0.0], [2e-310, 3.0, 0.25]])
        assert data.vectors.tobytes() == want.tobytes()

    @pytest.mark.parametrize("cell", ["nan", "1e999", "-inf"])
    def test_non_finite_cells_raise(self, tmp_path, cell):
        p = tmp_path / "d.csv"
        p.write_text(f"1,2\n{cell},3\n")
        with pytest.raises(NonFinite):
            ingest(p)

    def test_numpy_only_space_is_not_a_number(self, tmp_path):
        # numpy's parser strips \x1c as whitespace; float() does not
        p = tmp_path / "d.csv"
        p.write_text("1\x1c,2\n3,4\n")
        with pytest.raises(ParseError, match=r"^row 1, column 1: not a number: '1\\x1c'$"):
            ingest(p)

    def test_first_fault_in_file_order_is_reported(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2,3\n4,x,6\n7,8,9\n1,2,3\n4,5\n")
        with pytest.raises(ParseError) as info:
            ingest(p)
        assert type(info.value) is ParseError
        assert str(info.value) == "row 2, column 2: not a number: 'x'"

    def test_ragged_before_bad_cell(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,1,2\nb,3\nc,4,y\n")
        with pytest.raises(RaggedRows, match="^row 2 has 2 columns, expected 3$"):
            ingest(p)

    def test_bad_cell_column_counts_label(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("\na,1,2\n\nb,3, \n")
        with pytest.raises(ParseError, match=r"^row 4, column 3: not a number: ' '$"):
            ingest(p)

    @pytest.mark.parametrize("text, column", [("1,\n3,4\n", "''"), ("1, \n3,4\n", "' '")])
    def test_blank_cell_in_numeric_first_row_is_a_fault(self, tmp_path, text, column):
        # a first row led by a number is data, not a header, however blank
        p = tmp_path / "d.csv"
        p.write_text(text)
        with pytest.raises(ParseError, match=rf"^row 1, column 2: not a number: {column}$"):
            ingest(p)

    @pytest.mark.parametrize("text, want, labels", [
        ("name,\na,1\nb,2\n", [[1.0], [2.0]], ("a", "b")),
        (",x,y\n1,2,3\n", [[1.0, 2.0, 3.0]], None),
        ("x\n1\n2\n", [[1.0], [2.0]], None),
    ])
    def test_headers_with_blank_or_single_cells_are_skipped(self, tmp_path, text, want, labels):
        p = tmp_path / "d.csv"
        p.write_text(text)
        data = ingest(p)
        assert data.vectors.tolist() == want
        assert data.labels == labels

    def test_label_only_rows(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a\nb\n")
        data = ingest(p)
        assert data.vectors.shape == (1, 0)
        assert data.labels == ("b",)
