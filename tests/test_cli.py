import bz2
import contextlib
import gzip
import io
import json
import lzma
import math
import os
import subprocess
import sys
from itertools import compress
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uosfit import (DataSet, Partition, RaggedRows, ShiftStructure, SolveConfig, generate,
                    ingest, sparsity_curve)
from uosfit import cli
from uosfit.cli import main
from uosfit.dataio import Ragged, write_dataset_csv, write_json
from uosfit.sparsity import encode, extract_dictionary

from helpers import planted_union, sis_signals_from_generator

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
        assert doc["schema_version"] == 2
        assert "dedup_tol" not in doc["config"]
        assert len(doc["dictionary"]["atoms"]) <= 2

    def test_byte_identical_reports(self, tmp_path):
        # The second input, 6000 planted points, is one the search screens
        # at l = 2.
        tall = tmp_path / "tall.csv"
        write_dataset_csv(tall, DataSet(planted_union(29, l=3, n=1, dim=3, points=6000,
                                                      sigma=0.1)), with_labels=False)
        for data in (FIXTURE, tall):
            r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
            argv = ["fit", "--input", str(data), "--l", "2", "--n", "1",
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

    def test_sis_reports_of_real_signals_have_conjugate_symmetric_generators(self, tmp_path):
        # real rows get generators real in time; complex spectra fit every class
        rng = np.random.default_rng(6)
        rows, spectra = tmp_path / "rows.csv", tmp_path / "spectra.csv"
        np.savetxt(rows, rng.standard_normal((6, 12)), delimiter=",")
        spec = rng.standard_normal((6, 12)) + 1j * rng.standard_normal((6, 12))
        np.savetxt(spectra, np.stack([spec.real, spec.imag], axis=-1).reshape(6, 24), delimiter=",")
        report = tmp_path / "rep.json"
        mirror = -np.arange(12) % 12
        for path, form in ((rows, "rows"), (spectra, "spectra")):
            assert main(["fit", "--input", str(path), "--mode", "sis", "--input-format", form,
                         "--signal-len", "12", "--shift-step", "3", "--l", "2", "--n", "1",
                         "--report", str(report), "--no-timings"]) == 0
            for comp in json.loads(report.read_text())["components"]:
                assert len(comp["per_freq_rank"]) == 4
                gens = np.array([np.array(g["re"]) + 1j * np.array(g["im"])
                                 for g in comp["generators"]])
                assert np.array_equal(gens[:, mirror], gens.conj()) == (form == "rows")

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

    def test_sweep_over_a_list_of_l(self, tmp_path):
        report = tmp_path / "s.json"
        assert main(["sweep", "--input", str(FIXTURE), "--l", "1,3", "--n", "1",
                     "--restarts", "2", "--report", str(report), "--no-timings"]) == 0
        rows = json.loads(report.read_text())["rows"]
        assert [(row["l"], row["n"]) for row in rows] == [(1, 1), (3, 1)]
        assert rows[1]["epsilon"] <= rows[0]["epsilon"]

    def test_fit_verbose_prints_the_report(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        capsys.readouterr()
        assert main(["fit", "--input", str(FIXTURE), "--l", "2", "--n", "1", "--verbose",
                     "--report", str(report), "--no-timings"]) == 0
        assert capsys.readouterr().out == report.read_text()

    def test_score_out_writes_what_it_prints(self, tmp_path, capsys):
        _fitted_report(tmp_path)
        out = tmp_path / "score.json"
        capsys.readouterr()
        assert main(["score", "--input", str(FIXTURE), "--report", str(tmp_path / "rep.json"),
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out == out.read_text()

    @staticmethod
    def _n_0_fit_stays_in_cell_0(data, report):
        assert main(["fit", "--input", str(data), "--l", "3", "--n", "0",
                     "--init", "farthest_point", "--restarts", "4", "--no-timings",
                     "--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        energy = float(np.sum(ingest(data).vectors ** 2))
        assert doc["assignment"] == [0] * len(doc["assignment"])
        assert doc["restarts"]["iterations_per_restart"] == [1, 1, 1, 1]
        assert abs(doc["objective"] - energy) <= 1e-12 * energy
        assert doc["converged"]

    def test_farthest_point_fit_at_n_0_starts_and_stays_in_cell_0(self, tmp_path):
        # every seed's fit is the zero subspace, so each point ties at its
        # own energy and goes to cell 0; the objective is the data energy
        self._n_0_fit_stays_in_cell_0(FIXTURE, tmp_path / "r.json")

    @pytest.mark.parametrize("columns", [1, 2])
    def test_farthest_point_fit_at_n_0_in_one_and_two_dimensions(self, tmp_path, columns):
        # the search measures along each model's trailing eigenvectors, and
        # every rank-0 model along the identity, so the ties stay exact at
        # every N and every point still goes to cell 0
        data = tmp_path / "d.csv"
        rows = [line.split(",")[:1 + columns] for line in FIXTURE.read_text().splitlines()]
        data.write_text("".join(",".join(row) + "\n" for row in rows))
        self._n_0_fit_stays_in_cell_0(data, tmp_path / "r.json")

    def test_farthest_point_sweep_matches_the_library_curve(self, tmp_path):
        report = tmp_path / "sweep.json"
        assert main(["sweep", "--input", str(FIXTURE), "--l", "1:4", "--n", "0:1",
                     "--init", "farthest_point", "--restarts", "3", "--no-timings",
                     "--report", str(report)]) == 0
        rows = json.loads(report.read_text())["rows"]
        cfg = SolveConfig(l=1, n=0, restarts=3, init_strategy="farthest_point")
        want = sparsity_curve(ingest(FIXTURE), range(1, 5), [0, 1], cfg)
        assert rows == [{"l": r.l, "n": r.n, "epsilon": r.epsilon} for r in want]
        for n in (0, 1):
            column = [r["epsilon"] for r in rows if r["n"] == n]
            assert all(b <= a for a, b in zip(column, column[1:]))

    @pytest.mark.parametrize("argv, defaults", [
        (["fit", "--l", "2", "--n", "1"],
         ["--mode", "euclidean", "--input-format", "rows", "--init", "random_partition",
          "--restarts", "32", "--seed", "0"]),
        (["fit", "--l", "2", "--n", "1", "--mode", "sis", "--signal-len", "3", "--shift-step", "1"],
         ["--input-format", "rows"]),
        (["sweep", "--l", "1:3", "--n", "0:1"],
         ["--init", "random_partition", "--restarts", "32", "--seed", "0"]),
    ])
    def test_explicit_defaults_write_the_same_report(self, tmp_path, argv, defaults):
        implicit, explicit = tmp_path / "implicit.json", tmp_path / "explicit.json"
        argv = argv + ["--input", str(FIXTURE), "--no-timings"]
        assert main(argv + ["--report", str(implicit)]) == 0
        assert main(argv + defaults + ["--report", str(explicit)]) == 0
        assert explicit.read_bytes() == implicit.read_bytes()

    def test_generate_command_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["generate", "--l", "2", "--n", "1", "--ambient-dim", "3",
                "--points-per-subspace", "4", "--seed", "5"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_generate_no_labels_drops_the_label_column(self, tmp_path):
        labelled, bare = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["generate", "--l", "2", "--n", "1", "--ambient-dim", "3",
                "--points-per-subspace", "4", "--noise-sigma", "0.1", "--seed", "5"]
        assert main(argv + ["--out", str(labelled)]) == 0
        assert main(argv + ["--no-labels", "--out", str(bare)]) == 0
        rows = bare.read_text().splitlines()
        assert len(rows) == 8 and all(len(row.split(",")) == 3 for row in rows)
        with_labels, without = ingest(labelled), ingest(bare)
        assert with_labels.labels is not None and without.labels is None
        assert without.vectors.tobytes() == with_labels.vectors.tobytes()

    def test_dispatch_uses_current_command_binding(self, monkeypatch):
        # the parser is built once, so handlers must be looked up per call
        monkeypatch.setattr(cli, "cmd_score", lambda args: 7)
        assert main(["score", "--input", "x.csv", "--report", "r.json"]) == 7

    @pytest.mark.parametrize("argv", [
        ["fit", "--input", "x.csv", "--l", "2", "--n", "1", "--report", "r.json",
         "--mode", "sis", "--no-timings"],
        ["sweep", "--input", "x.csv", "--l", "1:3", "--n", "1", "--report", "r.json"],
        ["generate", "--l", "1", "--n", "1", "--ambient-dim", "2",
         "--points-per-subspace", "3", "--out", "g.csv"],
        ["score", "--input", "x.csv", "--report", "r.json"],
    ])
    def test_command_parser_gives_the_full_parsers_namespace(self, monkeypatch, argv):
        # main hands the command the words after its name, and the command's
        # parse of them is the full parser's parse of the line
        seen = []
        monkeypatch.setattr(cli, f"cmd_{argv[0]}", lambda words: seen.append(words) or 0)
        assert main(argv) == 0
        assert seen == [argv[1:]]
        assert cli._parse_command(argv[0], argv[1:]) == cli._PARSER.parse_args(argv)

    def test_lines_without_a_command_first_use_the_full_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0 and capsys.readouterr().out.strip() == cli.__version__
        for argv in ([], ["fitx"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert capsys.readouterr().err.splitlines()[-1].startswith("uosfit: error: ")

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


def _sweep_report(tmp_path):
    report = tmp_path / "sweep.json"
    assert main(["sweep", "--input", str(FIXTURE), "--l", "1:2", "--n", "1",
                 "--restarts", "2", "--report", str(report)]) == 0
    return report.read_bytes()


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
    "fit-spectra-odd-columns": ("fit-spectra", b"1,2,3\n4,5,6\n"),
    "report-of-a-sweep": ("score", _sweep_report),
    "report-is-a-list": ("score", lambda tmp_path: b"[]"),
    "report-basis-row-length": ("score", _edit(_basis_row_too_long)),
    "report-ambient-dim-text": ("score", _edit(lambda d: d.update(ambient_dim="x"))),
    "report-basis-entry-text": ("score", _edit(_basis_entry_text)),
    # dim must be a JSON integer in [0, ambient_dim]: -1 would let reshape
    # infer the row count, and int() would coerce 1.5 and true
    "report-dim-negative": ("score", _edit(lambda d: d["components"][0].update(dim=-1))),
    "report-dim-fraction": ("score", _edit(lambda d: d["components"][0].update(dim=1.5))),
    "report-dim-bool": ("score", _edit(lambda d: d["components"][0].update(dim=True))),
    "report-objective-null": ("score", _edit(lambda d: d.update(objective=None))),
    "report-not-utf8": ("score", lambda tmp_path: b'{"mode": "\xff"}'),
    "report-sis-no-components": ("score", _edit(lambda d: d.update(components=[]), SIS_FIT)),
    "report-sis-generator-re-short": ("score", _edit(_generator_re_short, SIS_FIT)),
    "report-sis-generator-im-long": ("score", _edit(_generator_im_long, SIS_FIT)),
    "report-sis-generators-missing": ("score", _edit(_generators_missing, SIS_FIT)),
    "report-sis-per-freq-rank": (
        "score", _edit(lambda d: d["components"][0].update(per_freq_rank=[5]), SIS_FIT)),
    # signal_len, shift_step and length must be JSON integers, as dim must
    "report-sis-signal-len-fraction": (
        "score", _edit(lambda d: d["config"].update(signal_len=3.7), SIS_FIT)),
    "report-sis-shift-step-bool": (
        "score", _edit(lambda d: d["config"].update(shift_step=True), SIS_FIT)),
    "report-sis-length-fraction": (
        "score", _edit(lambda d: d["components"][0].update(length=1.5), SIS_FIT)),
    # generators of 10**15 bins: far past any address space, so the
    # allocation fails at once
    "report-sis-signal-len-huge": (
        "score", _edit(lambda d: d["config"].update(signal_len=10**15), SIS_FIT)),
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
    elif command == "fit-spectra":
        argv = ["fit", "--input", str(bad), "--l", "1", "--n", "1", "--mode", "sis",
                "--signal-len", "2", "--shift-step", "1", "--input-format", "spectra",
                "--report", str(tmp_path / "r.json")]
    else:
        argv = ["score", "--input", str(FIXTURE), "--report", str(bad)]
    try:
        code = main(argv)
    except Exception as exc:  # an escaped exception is a traceback at the shell
        pytest.fail(f"{case}: {type(exc).__name__}: {exc}")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    if case == "report-of-a-sweep":  # well-formed, but of a mode score cannot read
        assert err == "error: cannot score a report of mode 'sweep'\n"


BAD_SETTINGS = {
    "generate-noise-sigma-nan": ["generate", "--noise-sigma", "nan"],
    "generate-noise-sigma-inf": ["generate", "--noise-sigma", "inf"],
    "fit-seed-negative": ["fit", "--seed", "-1"],
    "fit-farthest-point-seed-negative": ["fit", "--init", "farthest_point", "--seed", "-1"],
    "sweep-seed-negative": ["sweep", "--seed", "-1"],
    "sweep-l-descending": ["sweep", "--l", "3:1"],
    "generate-seed-negative": ["generate", "--seed", "-5"],
    "generate-ambient-dim-zero": ["generate", "--n", "0", "--ambient-dim", "0"],
    "fit-l-zero": ["fit", "--l", "0"],
    "fit-n-negative": ["fit", "--n", "-1"],
    "fit-restarts-zero": ["fit", "--restarts", "0"],
    "fit-sis-signal-len-zero": ["fit", "--mode", "sis", "--signal-len", "0", "--shift-step", "1"],
    "sweep-n-negative": ["sweep", "--n", "-1"],
    "sweep-restarts-zero": ["sweep", "--restarts", "0"],
    "generate-l-zero": ["generate", "--l", "0"],
    "generate-points-per-subspace-zero": ["generate", "--points-per-subspace", "0"],
    # the base command's ambient dimension is 3
    "generate-n-above-ambient-dim": ["generate", "--n", "4"],
    # a basis of 10**15 coordinates cannot be allocated on any machine
    "generate-ambient-dim-huge": ["generate", "--ambient-dim", str(10**15)],
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


@pytest.mark.parametrize("setting", [["fit", "--dedup-tol", "0.5"], ["fit", "--max-iters", "5"],
                                     ["sweep", "--max-iters", "5"]])
def test_removed_settings_are_usage_errors(tmp_path, capsys, setting):
    # atoms are never merged and the step cap is solver.MAX_ITERS: no flag sets them
    command, *rest = setting
    with pytest.raises(SystemExit) as exc:
        main([command, "--input", str(FIXTURE), "--l", "1", "--n", "1",
              "--report", str(tmp_path / "r.json"), *rest])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err and "Traceback" not in err


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
    # support and coefficients are ragged blocks, written as their rows
    codes = {key: val.rows() if isinstance(val, Ragged) else val
             for key, val in doc["codes"].items()}
    assert isinstance(doc["codes"]["coefficients"], Ragged)
    # repr tells 3 from 3.0 and -0.0 from 0.0
    assert repr(codes) == repr(_codes_by_compress(ingest(data), doc))


@pytest.mark.parametrize("source, l, n", [("fixture", "2", "1"), ("axes", "2", "2"),
                                           ("planted", "3", "2")])
def test_fit_report_certifies_its_objective(tmp_path, source, l, n):
    # The report alone (its atoms and codes) reconstructs the input with total
    # squared error equal to its objective, at criterion 7's tolerance.
    data = FIXTURE if source == "fixture" else tmp_path / f"{source}.csv"
    if source == "axes":
        data.write_text(AXES)
    elif source == "planted":
        planted, _ = generate(l=3, n=2, ambient_dim=5, points_per_subspace=12,
                              noise_sigma=0.05, seed=17)
        write_dataset_csv(data, planted)
    report = tmp_path / "r.json"
    assert main(["fit", "--input", str(data), "--l", l, "--n", n, "--seed", "0",
                 "--report", str(report), "--no-timings"]) == 0
    doc = json.loads(report.read_text())
    atoms = np.array(doc["dictionary"]["atoms"]).reshape(-1, doc["ambient_dim"])
    codes = doc["codes"]
    x = ingest(data).vectors
    rec = np.array([np.array(coef) @ atoms[support]
                    for support, coef in zip(codes["support"], codes["coefficients"])])
    error = float(np.sum((x - rec) ** 2))
    objective = doc["objective"]
    dust = 1e-12 * (1.0 + float(np.sum(x * x)))
    assert abs(error - objective) <= 1e-9 * max(error, objective) + dust
    assert len(atoms) <= int(l) * int(n)
    assert max(len(support) for support in codes["support"]) <= int(n)


def _report_edit(path, where, literal):
    """The report at ``path`` with the number at ``where`` (keys and indices
    into the document) spelt as ``literal``."""
    doc = json.loads(path.read_text())
    *outer, last = where
    node = doc
    for key in outer:
        node = node[key]
    node[last] = "@"
    return json.dumps(doc, indent=1).replace('"@"', literal)


def _score_outcome(capsys, data, report):
    capsys.readouterr()
    code = main(["score", "--input", str(data), "--report", str(report)])
    out, err = capsys.readouterr()
    return code, out, err


def _spectra_csv(path):
    rng = np.random.default_rng(5)
    spectra = rng.standard_normal((6, 8))
    path.write_text("".join(",".join(map(repr, row.tolist())) + "\n" for row in spectra))
    return path


SPECTRA_FIT = ("--mode", "sis", "--input-format", "spectra", "--signal-len", "4",
               "--shift-step", "2")
OBJECTIVE = ("objective",)
BASIS_ENTRY = ("components", 0, "basis", 0, 0)
GENERATOR_ENTRY = ("components", 0, "generators", 0, "re", 1)


SCORED_REPORTS = {
    "euclidean": ((), None, None),
    "sis": (SIS_FIT, None, None),
    "sis-spectra": (SPECTRA_FIT, None, None),
    **{f"objective-{lit}": ((), OBJECTIVE, lit) for lit in ("1E2", "-0.0", "5e-324", "1e308")},
    **{f"basis-{lit}": ("axes", BASIS_ENTRY, lit) for lit in ("-0.0", "5e-324")},
    **{f"sis-generator-{lit}": (SIS_FIT, GENERATOR_ENTRY, lit)
       for lit in ("1E2", "-0.0", "5e-324", "1e308")},
    "sis-spectra-generator-1E-2": (SPECTRA_FIT, GENERATOR_ENTRY, "-1E-2"),
}


@pytest.mark.parametrize("case", sorted(SCORED_REPORTS))
def test_score_reads_the_numbers_a_default_json_load_gives(tmp_path, monkeypatch, capsys,
                                                           case):
    fit, where, literal = SCORED_REPORTS[case]
    data = FIXTURE
    if fit == SPECTRA_FIT:
        data = _spectra_csv(tmp_path / "spectra.csv")
    elif fit == "axes":
        # the first basis row of this fit is the third axis: its first entry is 0
        data, fit = tmp_path / "axes.csv", ()
        data.write_text(AXES)
    report = tmp_path / "r.json"
    assert main(["fit", "--input", str(data), "--l", "2", "--n", "1", "--seed", "0",
                 "--report", str(report), "--no-timings", *fit]) == 0
    if where is not None:
        report.write_text(_report_edit(report, where, literal))
    got = _score_outcome(capsys, data, report)
    monkeypatch.setattr(cli, "load_members", lambda fh, names: json.load(fh))
    want = _score_outcome(capsys, data, report)
    assert got == want
    if got[0] == 0:
        # "-0" is a JSON integer: read integers as floats to keep the sign
        scored, wanted = (json.loads(out, parse_int=float) for _, out, _ in (got, want))
        for key in ("objective", "stored_objective"):
            assert scored[key].hex() == wanted[key].hex()
        if where == OBJECTIVE:
            assert scored["stored_objective"].hex() == float(literal).hex()


# An integer past CPython's 4300-digit limit on int() of a string.
LONG_INT = "9" * 5000


def test_score_converts_only_the_numbers_it_reads(tmp_path, monkeypatch, capsys):
    # A skipped member is parsed for syntax alone, so an integer int() would
    # refuse passes there; in objective it fails as json.load fails on it.
    report, edited = tmp_path / "r.json", tmp_path / "edited.json"
    assert main(["fit", "--input", str(FIXTURE), "--l", "2", "--n", "1", "--seed", "0",
                 "--report", str(report), "--no-timings"]) == 0
    scored = _score_outcome(capsys, FIXTURE, report)
    assert scored[0] == 0
    edited.write_text(_report_edit(report, ("assignment", 0), LONG_INT))
    assert _score_outcome(capsys, FIXTURE, edited) == scored
    edited.write_text(_report_edit(report, OBJECTIVE, LONG_INT))
    got = _score_outcome(capsys, FIXTURE, edited)
    assert got[0] == 2 and got[2].startswith("error: malformed report") and "digits" in got[2]
    monkeypatch.setattr(cli, "load_members", lambda fh, names: json.load(fh))
    assert _score_outcome(capsys, FIXTURE, edited) == got


COMPRESSORS = {"gz": gzip.compress, "bz2": bz2.compress, "xz": lzma.compress}


@pytest.mark.parametrize("suffix", sorted(COMPRESSORS))
def test_compressed_input_is_not_utf8_text(tmp_path, capsys, suffix):
    # numpy's loadtxt decompresses a path by its suffix; ingest must not.
    # These rows compress under bz2 to bytes that start with ASCII and hold
    # no \x1c-\x1f, so they reach numpy's parser.
    packed = tmp_path / f"in.csv.{suffix}"
    packed.write_bytes(COMPRESSORS[suffix](b"13,2\n3,4\n5,6\n"))
    if suffix == "bz2":
        raw = packed.read_bytes()
        assert raw[:1].isascii() and not any(c in raw for c in b"\x1c\x1d\x1e\x1f")
    capsys.readouterr()
    assert main(["fit", "--input", str(packed), "--l", "1", "--n", "1",
                 "--report", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {packed} is not UTF-8 text: ") and err.count("\n") == 1


def test_fit_reads_a_csv_with_a_byte_order_mark_as_without(tmp_path):
    # Spreadsheets export "CSV UTF-8" with a leading byte-order mark.
    docs = []
    for name, head in (("plain", b""), ("marked", b"\xef\xbb\xbf")):
        data = tmp_path / f"{name}.csv"
        data.write_bytes(head + FIXTURE.read_bytes())
        report = tmp_path / f"{name}.json"
        assert main(["fit", "--input", str(data), "--l", "2", "--n", "1", "--seed", "0",
                     "--report", str(report), "--no-timings"]) == 0
        doc = json.loads(report.read_text())
        doc["config"].pop("input")
        docs.append(doc)
    assert docs[0] == docs[1] and docs[0]["labels"]


# The bytes a mutation inserts: JSON and CSV syntax, digits, and a byte that
# is not UTF-8, besides any byte at all.
FUZZ_BYTES = st.one_of(st.sampled_from(list(b'0123456789.,-+eE"[]{}:\n \xff')),
                       st.integers(0, 255))


@st.composite
def mutated(draw, text):
    """``text`` after one to three cuts, byte insertions and swaps of two
    characters."""
    data = bytearray(text)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["cut", "insert", "swap"]))
        at = draw(st.integers(0, len(data)))
        if op == "cut":
            del data[at:at + draw(st.integers(1, 8))]
        elif op == "insert":
            data.insert(at, draw(FUZZ_BYTES))
        elif data:
            i, j = min(at, len(data) - 1), draw(st.integers(0, len(data) - 1))
            data[i], data[j] = data[j], data[i]
    return bytes(data)


@pytest.fixture(scope="module")
def fuzz_reports(tmp_path_factory):
    """The fixture's CSV and its Euclidean and shift-invariant fit reports."""
    where = tmp_path_factory.mktemp("fuzz")
    reports = {}
    for name, extra in (("euclidean", ()), ("sis", SIS_FIT)):
        report = where / f"{name}.json"
        assert main(["fit", "--input", str(FIXTURE), "--l", "2", "--n", "1", "--restarts", "2",
                     "--report", str(report), "--no-timings", *extra]) == 0
        reports[name] = report.read_bytes()
    return where, FIXTURE.read_bytes(), reports


def _assert_exits_cleanly(argv):
    """``main`` returns 0, 1 or 2, its output captured; an exception that
    escapes main is a traceback at the shell and fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_csv_fit_exits_cleanly(fuzz_reports, data):
    where, csv, _ = fuzz_reports
    bad = where / "fit.csv"
    bad.write_bytes(data.draw(mutated(csv)))
    mode = data.draw(st.sampled_from([(), SIS_FIT]))
    _assert_exits_cleanly(["fit", "--input", str(bad), "--l", "2", "--n", "1", "--restarts", "2",
                "--report", str(where / "fit.json"), *mode])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_report_score_exits_cleanly(fuzz_reports, data):
    where, _, reports = fuzz_reports
    bad = where / "score.json"
    bad.write_bytes(data.draw(mutated(reports[data.draw(st.sampled_from(sorted(reports)))])))
    _assert_exits_cleanly(["score", "--input", str(FIXTURE), "--report", str(bad)])


def test_reports_are_byte_identical_across_interpreters(tmp_path):
    # Each command runs in two fresh interpreters, with different string
    # hash seeds; their output files and standard output must agree.
    rng = np.random.default_rng(4)
    gens = rng.standard_normal((2, 16))
    signals = np.vstack([sis_signals_from_generator(rng, g, ShiftStructure(16, 4), 5) for g in gens])
    signals += 0.01 * rng.standard_normal(signals.shape)
    write_dataset_csv(tmp_path / "signals.csv", DataSet(signals), with_labels=False)
    commands = [
        ["fit", "--input", str(FIXTURE), "--l", "2", "--n", "1", "--restarts", "4",
         "--no-timings", "--report", "fit.json"],
        ["fit", "--input", str(tmp_path / "signals.csv"), "--mode", "sis", "--signal-len", "16",
         "--shift-step", "4", "--l", "2", "--n", "1", "--restarts", "4", "--no-timings",
         "--report", "sis.json"],
        ["sweep", "--input", str(FIXTURE), "--l", "1:3", "--n", "0:1", "--restarts", "2",
         "--no-timings", "--report", "sweep.json", "--csv", "sweep.csv"],
        ["score", "--input", str(FIXTURE), "--report", "fit.json", "--out", "score.json"],
    ]
    src = str(Path(cli.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("0", "1"):
        where = tmp_path / f"hash-seed-{hash_seed}"
        where.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        stdout = []
        for argv in commands:
            run = subprocess.run([sys.executable, "-m", "uosfit.cli", *argv], cwd=where, env=env,
                                 capture_output=True)
            assert run.returncode == 0, run.stderr.decode()
            stdout.append(run.stdout)
        files = {p.name: p.read_bytes() for p in sorted(where.iterdir())}
        outputs.append((stdout, files))
    assert sorted(outputs[0][1]) == ["fit.json", "score.json", "sis.json", "sweep.csv", "sweep.json"]
    assert outputs[0] == outputs[1]
