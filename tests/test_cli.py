import json
import math
from itertools import compress
from pathlib import Path

import numpy as np
import pytest

from uosfit import Partition, RaggedRows, generate, ingest
from uosfit import cli
from uosfit.cli import main
from uosfit.dataio import write_dataset_csv, write_json
from uosfit.sparsity import encode, extract_dictionary

DATA_DIR = Path(__file__).parent / "data"
FIXTURE = DATA_DIR / "fixture.csv"
GOLDEN = DATA_DIR / "fixture_golden.json"


class TestIngest:
    def test_plain_rows(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2\n3,4\n5,6\n")
        data = ingest(p)
        assert data.m == 3 and data.ambient_dim == 2
        assert data.labels is None
        assert np.allclose(data.vectors, [[1, 2], [3, 4], [5, 6]])

    def test_header_skipped(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y\n1,2\n3,4\n")
        data = ingest(p)
        assert data.m == 2
        assert data.labels is None

    def test_label_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,1,2\nb,3,4\n")
        data = ingest(p)
        assert data.labels == ("a", "b")
        assert data.ambient_dim == 2

    def test_header_and_labels(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("id,x,y\na,1,2\nb,3,4\n")
        data = ingest(p)
        assert data.labels == ("a", "b")
        assert data.m == 2

    def test_ragged_row_names_location(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2\n3\n")
        with pytest.raises(RaggedRows, match="row 2"):
            ingest(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="nowhere.csv"):
            ingest(tmp_path / "nowhere.csv")

    def test_spectra_pairs_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        sigs = rng.standard_normal((3, 8))
        spectra = np.fft.fft(sigs, axis=1) / math.sqrt(8)
        rows = []
        for s in spectra:
            cells = []
            for v in s:
                cells.extend([repr(float(v.real)), repr(float(v.imag))])
            rows.append(",".join(cells))
        p = tmp_path / "spec.csv"
        p.write_text("\n".join(rows) + "\n")
        data = ingest(p, complex_pairs=True)
        assert np.max(np.abs(data.vectors - sigs)) <= 1e-12

    def test_fixture_has_labels(self):
        data = ingest(FIXTURE)
        assert data.m == 8 and data.ambient_dim == 3
        assert set(data.labels) == {"s0", "s1"}


class TestGenerate:
    def test_deterministic_per_seed(self, tmp_path):
        a, _ = generate(l=2, n=1, ambient_dim=3, points_per_subspace=5, seed=9)
        b, _ = generate(l=2, n=1, ambient_dim=3, points_per_subspace=5, seed=9)
        assert a.vectors.tobytes() == b.vectors.tobytes()

    def test_csv_round_trip(self, tmp_path):
        data, _ = generate(l=2, n=2, ambient_dim=4, points_per_subspace=3,
                           noise_sigma=0.1, seed=1)
        p = tmp_path / "d.csv"
        write_dataset_csv(p, data)
        back = ingest(p)
        assert back.labels == data.labels
        assert np.array_equal(back.vectors, data.vectors)

    def test_truth_matches_labels(self):
        data, truth = generate(l=3, n=1, ambient_dim=4, points_per_subspace=2, seed=2)
        assert [f"s{t}" for t in truth] == list(data.labels)


class TestCliCommands:
    def test_fit_matches_golden(self, tmp_path):
        report = tmp_path / "rep.json"
        code = main(["fit", "--input", str(FIXTURE), "--l", "2", "--n", "1",
                     "--seed", "0", "--restarts", "32",
                     "--report", str(report), "--no-timings"])
        assert code == 0
        doc = json.loads(report.read_text())
        golden = json.loads(GOLDEN.read_text())
        assert abs(doc["objective"] - golden["objective"]) <= 1e-9
        assert doc["converged"] is True
        assert len(doc["assignment"]) == 8
        assert len(doc["dictionary"]["atoms"]) <= 2

    def test_byte_identical_reports(self, tmp_path):
        r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["fit", "--input", str(FIXTURE), "--l", "2", "--n", "1",
                "--seed", "3", "--no-timings"]
        assert main(argv + ["--report", str(r1)]) == 0
        assert main(argv + ["--report", str(r2)]) == 0
        assert r1.read_bytes() == r2.read_bytes()

    def test_timings_live_in_own_section(self, tmp_path):
        r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["fit", "--input", str(FIXTURE), "--l", "2", "--n", "1", "--seed", "3"]
        assert main(argv + ["--report", str(r1)]) == 0
        assert main(argv + ["--report", str(r2)]) == 0
        d1, d2 = json.loads(r1.read_text()), json.loads(r2.read_text())
        assert "timings" in d1
        d1.pop("timings"), d2.pop("timings")
        assert d1 == d2

    def test_score_reproduces_objective(self, tmp_path, capsys):
        report = tmp_path / "rep.json"
        main(["fit", "--input", str(FIXTURE), "--l", "2", "--n", "1",
              "--seed", "0", "--report", str(report), "--no-timings"])
        capsys.readouterr()
        assert main(["score", "--input", str(FIXTURE), "--report", str(report)]) == 0
        out = json.loads(capsys.readouterr().out)
        stored = out["stored_objective"]
        assert abs(out["objective"] - stored) <= 1e-12 * (1.0 + stored)

    def test_score_sis_report(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        sig_path = tmp_path / "sig.csv"
        np.savetxt(sig_path, rng.standard_normal((4, 12)), delimiter=",")
        report = tmp_path / "rep.json"
        code = main(["fit", "--input", str(sig_path), "--mode", "sis",
                     "--signal-len", "12", "--shift-step", "3",
                     "--l", "2", "--n", "1", "--seed", "0",
                     "--report", str(report), "--no-timings"])
        assert code == 0
        capsys.readouterr()
        assert main(["score", "--input", str(sig_path), "--report", str(report)]) == 0
        out = json.loads(capsys.readouterr().out)
        stored = out["stored_objective"]
        assert abs(out["objective"] - stored) <= 1e-12 * (1.0 + stored)

    def test_sweep_csv_monotone(self, tmp_path):
        report, csv_out = tmp_path / "s.json", tmp_path / "s.csv"
        code = main(["sweep", "--input", str(FIXTURE), "--l", "1:4", "--n", "1",
                     "--seed", "0", "--restarts", "4",
                     "--report", str(report), "--csv", str(csv_out)])
        assert code == 0
        lines = csv_out.read_text().strip().splitlines()
        assert lines[0] == "l,n,epsilon"
        eps = [float(line.split(",")[2]) for line in lines[1:]]
        assert all(b <= a for a, b in zip(eps, eps[1:]))

    def test_generate_command_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["generate", "--l", "2", "--n", "1", "--ambient-dim", "3",
                "--points-per-subspace", "4", "--seed", "5"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_dispatch_uses_current_command_binding(self, monkeypatch):
        # the parser is built once, so handlers must be looked up per call
        monkeypatch.setattr(cli, "cmd_score", lambda args: 7)
        assert main(["score", "--input", "x.csv", "--report", "r.json"]) == 7

    def test_missing_input_exit_2(self, tmp_path, capsys):
        code = main(["fit", "--input", str(tmp_path / "gone.csv"), "--l", "1",
                     "--n", "1", "--report", str(tmp_path / "r.json")])
        assert code == 2
        assert "gone.csv" in capsys.readouterr().err

    def test_unwritable_report_exit_2(self, tmp_path, capsys):
        code = main(["fit", "--input", str(FIXTURE), "--l", "1", "--n", "1",
                     "--report", str(FIXTURE / "r.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_bad_range_exit_2(self, tmp_path):
        code = main(["sweep", "--input", str(FIXTURE), "--l", "junk", "--n", "1",
                     "--report", str(tmp_path / "r.json")])
        assert code == 2

    def test_sis_without_structure_exit_2(self, tmp_path):
        code = main(["fit", "--input", str(FIXTURE), "--mode", "sis",
                     "--l", "1", "--n", "1", "--report", str(tmp_path / "r.json")])
        assert code == 2

    def test_empty_input_exit_2(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        code = main(["fit", "--input", str(p), "--l", "1", "--n", "1",
                     "--report", str(tmp_path / "r.json")])
        assert code == 2

    def test_nonfinite_input_exit_1(self, tmp_path):
        p = tmp_path / "inf.csv"
        p.write_text("1e999,0\n1,2\n")
        code = main(["fit", "--input", str(p), "--l", "1", "--n", "1",
                     "--report", str(tmp_path / "r.json")])
        assert code == 1


# A shift-invariant fit of the fixture: signals of length 3, shift step 1.
SIS_FIT = ("--mode", "sis", "--signal-len", "3", "--shift-step", "1")


def _fitted_report(tmp_path, extra=()):
    report = tmp_path / "rep.json"
    assert main(["fit", "--input", str(FIXTURE), "--l", "2", "--n", "1", "--seed", "0",
                 "--report", str(report), "--no-timings", *extra]) == 0
    return json.loads(report.read_text())


def _edit(change, extra=()):
    def write(tmp_path):
        doc = _fitted_report(tmp_path, extra)
        change(doc)
        return json.dumps(doc).encode()
    return write


def _basis_row_too_long(doc):
    doc["components"][0]["basis"][0].append(0.0)


def _basis_entry_text(doc):
    doc["components"][0]["basis"][0][0] = "a"


def _generator_re_short(doc):
    # one entry would broadcast over the whole signal
    doc["components"][0]["generators"][0]["re"] = [1.0]


def _generator_im_long(doc):
    doc["components"][0]["generators"][0]["im"].append(0.0)


def _generators_missing(doc):
    doc["components"][0]["generators"] = []


MALFORMED = {
    "fit-input-not-utf8": ("fit", b"\xff1,2\n3,4\n"),
    "report-is-a-list": ("score", lambda tmp_path: b"[]"),
    "report-basis-row-length": ("score", _edit(_basis_row_too_long)),
    "report-ambient-dim-text": ("score", _edit(lambda d: d.update(ambient_dim="x"))),
    "report-basis-entry-text": ("score", _edit(_basis_entry_text)),
    "report-objective-null": ("score", _edit(lambda d: d.update(objective=None))),
    "report-not-utf8": ("score", lambda tmp_path: b'{"mode": "\xff"}'),
    "report-sis-no-components": ("score", _edit(lambda d: d.update(components=[]), SIS_FIT)),
    "report-sis-generator-re-short": ("score", _edit(_generator_re_short, SIS_FIT)),
    "report-sis-generator-im-long": ("score", _edit(_generator_im_long, SIS_FIT)),
    "report-sis-generators-missing": ("score", _edit(_generators_missing, SIS_FIT)),
    "report-sis-per-freq-rank": (
        "score", _edit(lambda d: d["components"][0].update(per_freq_rank=[5]), SIS_FIT)),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2_without_traceback(tmp_path, capsys, case):
    command, content = MALFORMED[case]
    bad = tmp_path / "bad"
    bad.write_bytes(content if isinstance(content, bytes) else content(tmp_path))
    capsys.readouterr()
    if command == "fit":
        argv = ["fit", "--input", str(bad), "--l", "1", "--n", "1",
                "--report", str(tmp_path / "r.json")]
    else:
        argv = ["score", "--input", str(FIXTURE), "--report", str(bad)]
    try:
        code = main(argv)
    except Exception as exc:  # an escaped exception is a traceback at the shell
        pytest.fail(f"{case}: {type(exc).__name__}: {exc}")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


BAD_SETTINGS = {
    "fit-dedup-tol-nan": ["fit", "--dedup-tol", "nan"],
    "generate-noise-sigma-nan": ["generate", "--noise-sigma", "nan"],
    "generate-noise-sigma-inf": ["generate", "--noise-sigma", "inf"],
    "fit-seed-negative": ["fit", "--seed", "-1"],
    "fit-farthest-point-seed-negative": ["fit", "--init", "farthest_point", "--seed", "-1"],
    "sweep-seed-negative": ["sweep", "--seed", "-1"],
    "generate-seed-negative": ["generate", "--seed", "-5"],
    "generate-ambient-dim-zero": ["generate", "--n", "0", "--ambient-dim", "0"],
}


@pytest.mark.parametrize("case", sorted(BAD_SETTINGS))
def test_nonfinite_setting_exits_2_without_traceback(tmp_path, capsys, case):
    command, *setting = BAD_SETTINGS[case]
    if command == "generate":
        argv = ["generate", "--l", "2", "--n", "1", "--ambient-dim", "3",
                "--points-per-subspace", "4", "--out", str(tmp_path / "g.csv"), *setting]
    else:
        argv = [command, "--input", str(FIXTURE), "--l", "1", "--n", "1",
                "--report", str(tmp_path / "r.json"), *setting]
    try:
        code = main(argv)
    except Exception as exc:  # an escaped exception is a traceback at the shell
        pytest.fail(f"{case}: {type(exc).__name__}: {exc}")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["fit", "sweep", "score", "fit-spectra"])
def test_label_only_input_exits_2_naming_the_missing_columns(tmp_path, capsys, command):
    # what `generate --ambient-dim 0` used to write: labels, no numbers
    labels_only = tmp_path / "labels.csv"
    labels_only.write_text("s0\ns0\ns1\n")
    if command == "score":
        _fitted_report(tmp_path)
        argv = ["score", "--input", str(labels_only), "--report", str(tmp_path / "rep.json")]
    else:
        argv = [command.removesuffix("-spectra"), "--input", str(labels_only),
                "--l", "1", "--n", "1", "--report", str(tmp_path / "r.json")]
    if command == "fit-spectra":
        argv += [*SIS_FIT, "--input-format", "spectra"]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "no numeric columns" in err


NO_DATA_ROWS = {"empty": "", "blank-lines": "\n \n\n", "header-only": "x,y,z\n"}


@pytest.mark.parametrize("content", sorted(NO_DATA_ROWS))
@pytest.mark.parametrize("command", ["fit", "sweep", "score", "score-sis"])
def test_input_without_data_rows_exits_2(tmp_path, capsys, command, content):
    empty = tmp_path / "empty.csv"
    empty.write_text(NO_DATA_ROWS[content])
    if command.startswith("score"):
        _fitted_report(tmp_path, SIS_FIT if command == "score-sis" else ())
        argv = ["score", "--input", str(empty), "--report", str(tmp_path / "rep.json")]
    else:
        argv = [command, "--input", str(empty), "--l", "1", "--n", "1",
                "--report", str(tmp_path / "r.json")]
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: input file {empty} holds no data rows\n"


# Points on coordinate axes: some get an exact zero weight on one atom of
# their 2-dim component, so their support is shorter than its dimension.
AXES = "3,0,0\n-2,0,0\n0,1.5,0\n0,-1,0\n1,2,0\n2,-1,0\n0,0,4\n0,0,-3\n"


def _codes_by_compress(dataset, doc):
    """A fit report's codes as earlier versions built them: one compress per point."""
    bundle = cli._rebuild_euclidean(doc)
    dictionary = extract_dictionary(bundle)
    partition = Partition(np.array(doc["assignment"]), len(bundle))
    code = encode(dataset, bundle, partition, dictionary)
    weights = code.columns.T
    nonzero = (weights != 0).tolist()
    atom_ids = range(len(dictionary))
    return {
        "support": [list(compress(atom_ids, nz)) for nz in nonzero],
        "coefficients": [list(compress(w, nz)) for w, nz in zip(weights.tolist(), nonzero)],
        "support_sizes": list(code.support_sizes),
    }


def test_codes_match_per_point_compress(tmp_path, monkeypatch):
    data = tmp_path / "axes.csv"
    data.write_text(AXES)
    docs = []

    def keep(path, obj):
        docs.append(obj)
        return write_json(path, obj)

    monkeypatch.setattr(cli, "write_json", keep)
    assert main(["fit", "--input", str(data), "--l", "2", "--n", "2", "--seed", "0",
                 "--report", str(tmp_path / "r.json"), "--no-timings"]) == 0
    doc = docs[0]
    dims = [comp["dim"] for comp in doc["components"]]
    short = [size < dims[cell] for size, cell in
             zip(doc["codes"]["support_sizes"], doc["assignment"])]
    assert any(short) and not all(short)
    # repr tells 3 from 3.0 and -0.0 from 0.0
    assert repr(doc["codes"]) == repr(_codes_by_compress(ingest(data), doc))
