"""Byte-level pins for the report serialiser and the CSV reader."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uosfit import DataSet, NonFinite, ParseError, RaggedRows, ingest
from uosfit.dataio import to_json, write_dataset_csv


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


# Written by the recursive per-scalar serialiser; every later one must match.
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


class TestToJson:
    def test_golden_string(self):
        assert to_json(golden_object()) == GOLDEN_JSON

    @pytest.mark.parametrize("bad", [
        [1.0, math.nan],
        [math.inf],
        [[1.0], [2.0, -math.inf]],
        [1, np.float64(math.nan)],
    ])
    def test_non_finite_in_list_raises(self, bad):
        with pytest.raises(NonFinite):
            to_json({"v": bad})


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


class TestIngestExact:
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

    def test_label_only_rows(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a\nb\n")
        data = ingest(p)
        assert data.vectors.shape == (1, 0)
        assert data.labels == ("b",)
