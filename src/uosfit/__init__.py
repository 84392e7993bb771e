"""Optimal union-of-subspaces models, sparsity certificates, and
shift-invariant signal models for finite data."""

__version__ = "0.1.0"

from .errors import (
    DimensionMismatch,
    EmptyDataSet,
    IndexOutOfRange,
    InvalidSpec,
    LengthMismatch,
    NonFinite,
    NonSymmetric,
    ParseError,
    RaggedRows,
    StructureMismatch,
    TooLarge,
    UosfitError,
)
from .spectral import SymmetricEigen, sym_eigen
from .subspace import (
    DataSet,
    Subspace,
    SubspaceFit,
    best_fit_subspace,
    dist_sq,
    project,
    total_error,
)
from .bundles import (
    Bundle,
    Partition,
    best_bundle,
    best_partition,
    distance_matrix,
    gamma,
    objective_e,
)
from .solver import SolveConfig, SolveReport, SweepRow, brute_force, solve, sparsity_curve
from .sparsity import (
    Dictionary,
    SparseCode,
    SparsityCertificate,
    encode,
    extract_dictionary,
    sparsity_certificate,
)
from .sis import (
    FreqGramian,
    ShiftStructure,
    SISFit,
    SISModel,
    best_sis,
    generator_gramian,
    gramian,
    project_sis,
    sis_distance_matrix,
    solve_sis_bundle,
)
from .dataio import generate, ingest

__all__ = [
    "__version__",
    "UosfitError", "NonFinite", "NonSymmetric", "DimensionMismatch",
    "IndexOutOfRange", "EmptyDataSet", "TooLarge", "LengthMismatch",
    "StructureMismatch", "ParseError", "RaggedRows", "InvalidSpec",
    "SymmetricEigen", "sym_eigen",
    "DataSet", "Subspace", "SubspaceFit", "project", "dist_sq",
    "total_error", "best_fit_subspace",
    "Bundle", "Partition", "objective_e", "gamma", "best_partition",
    "best_bundle", "distance_matrix",
    "SolveConfig", "SolveReport", "SweepRow", "solve", "brute_force",
    "sparsity_curve",
    "Dictionary", "SparseCode", "SparsityCertificate", "extract_dictionary",
    "encode", "sparsity_certificate",
    "ShiftStructure", "SISModel", "SISFit", "FreqGramian", "gramian",
    "best_sis", "project_sis", "generator_gramian", "sis_distance_matrix",
    "solve_sis_bundle",
    "ingest", "generate",
]
