"""Every typed error the library raises, raised once with its exact message."""

import math
import re
import runpy
import sys
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from uosfit import (
    __version__,
    Bundle,
    DataSet,
    DimensionMismatch,
    EmptyDataSet,
    IndexOutOfRange,
    InvalidSpec,
    NonFinite,
    Partition,
    ShiftStructure,
    SolveConfig,
    StructureMismatch,
    Subspace,
    SymmetricEigen,
    best_fit_subspace,
    best_sis,
    brute_force,
    encode,
    extract_dictionary,
    gamma,
    generate,
    objective_e,
    solve,
    sparsity_curve,
    sym_eigen,
)
from uosfit import subspace
from uosfit.bundles import fit_partition
from uosfit.dataio import to_json
from uosfit.solver import INIT_STRATEGIES

POINTS = DataSet([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
AXES = Bundle((Subspace(2, [[1.0, 0.0]]), Subspace(2, [[0.0, 1.0]])))
EMPTY = DataSet(np.zeros((0, 2)))
LINE_IN_R3 = Bundle((Subspace(3, [[1.0, 0.0, 0.0]]),))


def _fit_with_eigenvectors(value):
    """best_fit_subspace of POINTS, every eigenvector entry replaced by ``value``."""
    def eigen(mat):
        eig = sym_eigen(mat)
        return SymmetricEigen(eig.eigenvalues, np.full_like(eig.eigenvectors, value))
    with mock.patch.object(subspace, "sym_eigen", eigen):
        best_fit_subspace(POINTS, 1)


ERRORS = {
    "bundle-empty": (lambda: Bundle(()), DimensionMismatch,
                     "a bundle needs at least one subspace"),
    "bundle-mixed-ambient-dims": (lambda: Bundle((Subspace.zero(2), Subspace.zero(3))),
                                  DimensionMismatch, "mixed ambient dimensions in bundle: [2, 3]"),
    "partition-not-flat": (lambda: Partition(np.zeros((2, 2)), 1), DimensionMismatch,
                           "assignment must be a flat index vector"),
    "partition-no-cells": (lambda: Partition([0], 0), IndexOutOfRange,
                           "num_cells must be >= 1"),
    "partition-fractional-entries": (lambda: Partition(np.array([0.5, 1.7]), 2), IndexOutOfRange,
                                     "assignment entries must be integers"),
    "partition-nan-entry": (lambda: Partition(np.array([0.0, math.nan]), 2), IndexOutOfRange,
                            "assignment entries must be integers"),
    "partition-fractional-cells": (lambda: Partition([0, 1], 2.5), IndexOutOfRange,
                                   "num_cells must be an integer"),
    "gamma-cells-vs-bundle": (lambda: gamma(POINTS, Partition([0, 0, 0], 1), AXES),
                              DimensionMismatch, "partition has 1 cells, bundle has 2"),
    "fit-partition-length": (lambda: fit_partition(POINTS, Partition([0, 0], 1), 1),
                             DimensionMismatch, "partition covers 2 points, data has 3"),
    "generate-l-zero": (lambda: generate(0, 1, 2, 3), InvalidSpec,
                        "l and points_per_subspace must be >= 1"),
    "generate-no-points": (lambda: generate(1, 1, 2, 0), InvalidSpec,
                           "l and points_per_subspace must be >= 1"),
    "generate-n-negative": (lambda: generate(1, -1, 2, 3), InvalidSpec,
                            "need 0 <= n <= ambient_dim"),
    "generate-n-above-ambient-dim": (lambda: generate(1, 3, 2, 3), InvalidSpec,
                                     "need 0 <= n <= ambient_dim"),
    "generate-l-fractional": (lambda: generate(2.0, 1, 3, 4), InvalidSpec, "l must be an integer"),
    "generate-n-fractional": (lambda: generate(2, 1.5, 3, 4), InvalidSpec, "n must be an integer"),
    "generate-ambient-dim-fractional": (lambda: generate(2, 1, 3.0, 4), InvalidSpec,
                                        "ambient_dim must be an integer"),
    "generate-points-fractional": (lambda: generate(2, 1, 3, 4.0), InvalidSpec,
                                   "points_per_subspace must be an integer"),
    "to-json-unsupported-type": (lambda: to_json({"v": [1.0, {1, 2}]}), TypeError,
                                 "cannot serialize set"),
    "shift-structure-zero": (lambda: ShiftStructure(0, 1), StructureMismatch,
                             "signal_len and shift_step must be >= 1"),
    "shift-structure-float-length": (lambda: ShiftStructure(64.0, 4), StructureMismatch,
                                     "signal_len and shift_step must be integers"),
    "shift-structure-float-step": (lambda: ShiftStructure(64, 4.0), StructureMismatch,
                                   "signal_len and shift_step must be integers"),
    "best-sis-n-negative": (lambda: best_sis(DataSet(np.ones((2, 4))), ShiftStructure(4, 2), -1),
                            InvalidSpec, "n must be >= 0"),
    "best-sis-n-fractional": (lambda: best_sis(DataSet(np.ones((2, 4))), ShiftStructure(4, 2), 1.5),
                              InvalidSpec, "n must be an integer"),
    "best-sis-overflow": (lambda: best_sis(DataSet(np.full((2, 4), 1e200)), ShiftStructure(4, 2), 1),
                          NonFinite, "matrix contains NaN or infinite entries"),
    "solve-config-l-zero": (lambda: SolveConfig(l=0, n=1), InvalidSpec, "l must be >= 1"),
    "solve-config-l-fractional": (lambda: SolveConfig(l=2.5, n=1), InvalidSpec,
                                  "l must be an integer"),
    "solve-config-n-fractional": (lambda: SolveConfig(l=1, n=1.5), InvalidSpec,
                                  "n must be an integer"),
    "solve-config-restarts-fractional": (lambda: SolveConfig(l=1, n=1, restarts=2.5), InvalidSpec,
                                         "restarts must be an integer"),
    "solve-config-seed-fractional": (lambda: SolveConfig(l=1, n=1, seed=1.5), InvalidSpec,
                                     "seed must be an integer"),
    "solve-config-n-negative": (lambda: SolveConfig(l=1, n=-1), InvalidSpec, "n must be >= 0"),
    "solve-config-restarts-zero": (lambda: SolveConfig(l=1, n=1, restarts=0), InvalidSpec,
                                   "restarts must be >= 1"),
    "solve-config-init-strategy": (lambda: SolveConfig(l=1, n=1, init_strategy="kmeans"),
                                   InvalidSpec, f"init_strategy must be one of {INIT_STRATEGIES}"),
    "brute-force-empty": (lambda: brute_force(EMPTY, 1, 1), EmptyDataSet,
                          "brute_force requires at least one data vector"),
    "brute-force-l-zero": (lambda: brute_force(POINTS, 0, 1), InvalidSpec, "l must be >= 1"),
    "brute-force-n-negative": (lambda: brute_force(POINTS, 1, -1), InvalidSpec, "n must be >= 0"),
    "brute-force-l-fractional": (lambda: brute_force(POINTS, 2.0, 1), InvalidSpec,
                                 "l must be an integer"),
    "brute-force-n-fractional": (lambda: brute_force(POINTS, 1, 1.5), InvalidSpec,
                                 "n must be an integer"),
    "sparsity-curve-empty-range": (lambda: sparsity_curve(POINTS, [], [1], SolveConfig(1, 1)),
                                   InvalidSpec, "l and n ranges must be nonempty"),
    "sparsity-curve-fractional-sizes": (lambda: sparsity_curve(POINTS, [2.5], [1.7], SolveConfig(1, 1)),
                                        InvalidSpec, "l must be an integer"),
    "sparsity-curve-fractional-n": (lambda: sparsity_curve(POINTS, [2], [1.7], SolveConfig(1, 1)),
                                    InvalidSpec, "n must be an integer"),
    "encode-data-length": (lambda: encode(POINTS, AXES, Partition([0, 1], 2),
                                          extract_dictionary(AXES)),
                           DimensionMismatch, "partition and data disagree in length"),
    "encode-bundle-length": (lambda: encode(POINTS, AXES, Partition([0, 0, 0], 1),
                                            extract_dictionary(AXES)),
                             DimensionMismatch, "partition and bundle disagree in length"),
    "encode-atom-dimension": (lambda: encode(POINTS, AXES, Partition([0, 1, 1], 2),
                                             extract_dictionary(LINE_IN_R3)),
                              DimensionMismatch, "dictionary atoms and data disagree in dimension"),
    "data-set-not-2d": (lambda: DataSet(np.zeros((2, 2, 2))), DimensionMismatch,
                        "expected 2-d data, got shape (2, 2, 2)"),
    "data-set-label-count": (lambda: DataSet([[1.0]], labels=("a", "b")), DimensionMismatch,
                             "labels and vectors disagree in length"),
    "subspace-shape": (lambda: Subspace(3, [[1.0, 0.0]]), DimensionMismatch,
                       "basis shape (1, 2) incompatible with ambient dim 3"),
    "subspace-too-many-rows": (lambda: Subspace(1, [[1.0], [1.0]]), DimensionMismatch,
                               "more basis vectors than ambient dimensions"),
    "subspace-non-finite": (lambda: Subspace(2, [[math.nan, 0.0]]), NonFinite,
                            "basis contains NaN or infinite entries"),
    "subspace-not-orthonormal": (lambda: Subspace(2, [[1.0, 1.0]]), DimensionMismatch,
                                 "basis rows are not orthonormal"),
    "residuals-sq-dims": (lambda: subspace.residuals_sq(POINTS, Subspace.zero(3)),
                          DimensionMismatch, "data dim 2 vs subspace dim 3"),
    "best-fit-n-negative": (lambda: best_fit_subspace(POINTS, -1), InvalidSpec,
                            "n must be >= 0"),
    "best-fit-n-fractional": (lambda: best_fit_subspace(POINTS, 1.5), InvalidSpec,
                              "n must be an integer"),
    "best-fit-complex": (lambda: best_fit_subspace(DataSet(POINTS.vectors * 1j), 1),
                         DimensionMismatch, "best_fit_subspace expects real-valued data"),
    "solve-complex": (lambda: solve(DataSet(POINTS.vectors * 1j), SolveConfig(1, 1, restarts=1)),
                      DimensionMismatch, "subspace fits expect real-valued data"),
    "fit-stack-non-finite-eigenvectors": (lambda: _fit_with_eigenvectors(math.nan), NonFinite,
                                          "basis contains NaN or infinite entries"),
    "fit-stack-non-orthonormal-eigenvectors": (lambda: _fit_with_eigenvectors(1.0),
                                               DimensionMismatch, "basis rows are not orthonormal"),
}


@pytest.mark.parametrize("case", ERRORS)
def test_raises_its_typed_error(case):
    call, error, message = ERRORS[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$") as raised:
        call()
    assert raised.type is error


def test_objective_of_empty_data_is_zero():
    assert objective_e(EMPTY, AXES) == 0.0


def test_cli_module_runs_as_a_script(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["uosfit", "--version"])
    with warnings.catch_warnings():
        # runpy warns when another test has imported uosfit.cli already.
        warnings.filterwarnings("ignore", "'uosfit.cli' found in sys.modules", RuntimeWarning)
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("uosfit.cli", run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == __version__


@pytest.mark.parametrize("size", [2, np.int64(2), np.uint8(2), True])
def test_integer_sizes_of_any_integer_type_pass(size):
    # operator.index accepts ints, numpy integers and bools
    cfg = SolveConfig(l=size, n=size, restarts=size, seed=size)
    assert (cfg.l, cfg.n, cfg.restarts, cfg.seed) == (size,) * 4
    assert {type(cfg.l), type(cfg.n), type(cfg.restarts), type(cfg.seed)} == {int}
    assert ShiftStructure(4 * size, size).num_freqs == 4
    assert Partition(np.zeros(3, dtype=type(size)), size).num_cells == size
    assert generate(size, size, size, size)[0].m == size * size
    assert brute_force(POINTS, size, size)[1].num_cells == size
    assert solve(POINTS, replace(cfg, restarts=1)).partition.num_cells == size
    rows = sparsity_curve(POINTS, [size], [size], SolveConfig(1, 1, restarts=1))
    assert [(type(row.l), type(row.n)) for row in rows] == [(int, int)]
    # single fits take n as SolveConfig does: a bool counts as one
    want = best_fit_subspace(POINTS, int(size))
    got = best_fit_subspace(POINTS, size)
    assert (got.error, got.subspace.dim) == (want.error, want.subspace.dim)
    signals = DataSet(np.arange(12.0).reshape(3, 4) % 5)
    want = best_sis(signals, ShiftStructure(4, 2), int(size))
    got = best_sis(signals, ShiftStructure(4, 2), size)
    assert (got.error, got.model.length) == (want.error, want.model.length)


@pytest.mark.parametrize("assignment", [[], np.array([0.0, 1.0]), np.array([1, 0], dtype=np.uint8)])
def test_partition_takes_entries_that_convert_exactly(assignment):
    part = Partition(assignment, 2)
    assert part.assignment.dtype == np.intp
    assert part.assignment.tolist() == list(np.asarray(assignment))
