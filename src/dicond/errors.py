"""Exception types and the argument checks shared across the package."""

from numbers import Integral

import numpy as np


class DicondError(Exception):
    """Base class for all package-specific errors."""


class EdgeListParseError(DicondError, ValueError):
    """Malformed edge-list input; carries the 1-based line number."""

    def __init__(self, line_no, message):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class EmptyGraphError(DicondError, ValueError):
    """Input describes no vertices at all."""


class DegenerateSubsetError(DicondError, ValueError):
    """Subset is empty, full, or has a zero-volume side."""


class ConstantVectorError(DicondError, ValueError):
    """Vertex vector is constant (or has zero median spread) where a
    nonconstant one is required."""


class GraphTooLargeError(DicondError, ValueError):
    """Instance exceeds an exhaustive-enumeration size cap."""


def check_int(name: str, value, low: int) -> None:
    """Raise ValueError unless value is an integer (numpy integers
    count, bools do not) of at least low."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


def check_vector(name: str, x, n: int) -> np.ndarray:
    """x as a float array; raise ValueError unless it is n finite values,
    naming the wrong shape or the first value that is not finite."""
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"{name} needs n = {n} finite values; got shape {x.shape}")
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise ValueError(f"{name} needs n = {n} finite values; got {x[bad[0]]} at index {bad[0]}")
    return x
