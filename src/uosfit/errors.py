"""Exception types shared across the package, and the integer check of sizes."""

import operator


class UosfitError(Exception):
    """Base class for all errors raised by this package."""


class NonFinite(UosfitError, ValueError):
    """Input contains NaN or infinite entries."""


class NonSymmetric(UosfitError, ValueError):
    """Matrix is not symmetric/Hermitian within tolerance."""


class DimensionMismatch(UosfitError, ValueError):
    """Operands have incompatible shapes or ambient dimensions."""


class IndexOutOfRange(UosfitError, ValueError):
    """Partition assignment refers to a cell index outside [0, num_cells)."""


class EmptyDataSet(UosfitError, ValueError):
    """The operation requires at least one data vector."""


class TooLarge(UosfitError, ValueError):
    """Exhaustive enumeration would exceed the safety guard."""


class LengthMismatch(UosfitError, ValueError):
    """Signal length does not match the shift structure."""


class StructureMismatch(UosfitError, ValueError):
    """Invalid shift structure (shift step must divide the signal length)."""


class ParseError(UosfitError, ValueError):
    """Malformed input file; message carries the row/column location."""


class RaggedRows(ParseError):
    """CSV rows do not all have the same number of columns."""


class InvalidSpec(UosfitError, ValueError):
    """Invalid generation or run configuration."""


def integer_sizes(**sizes):
    """The values of ``sizes`` as plain ints, in order: ``operator.index``
    takes ints, numpy integers and bools.  Raises ``InvalidSpec`` naming the
    first that is not an integer."""
    values = []
    for name, value in sizes.items():
        try:
            values.append(int(operator.index(value)))
        except TypeError:
            raise InvalidSpec(f"{name} must be an integer") from None
    return values


def model_dimension(n):
    """The largest model dimension ``n`` as a plain int, checked as
    ``integer_sizes`` checks a size; ``InvalidSpec`` if it is below 0."""
    (n,) = integer_sizes(n=n)
    if n < 0:
        raise InvalidSpec("n must be >= 0")
    return n
