"""Exception types, and the input rules that no one module owns, each stated once."""

from __future__ import annotations

import math
import numbers

import numpy as np


class SpcaLabError(Exception):
    """Base class for all package errors."""


class DimensionError(SpcaLabError, ValueError):
    """Input has the wrong shape (non-square, mismatched lengths, ...)."""


class NumericError(SpcaLabError, ValueError):
    """Input contains NaN/Inf or is otherwise numerically unusable."""


class DegenerateInputError(SpcaLabError, ValueError):
    """Input is structurally degenerate (all-zero matrix, zero spectrum)."""


class DomainError(SpcaLabError, ValueError):
    """A parameter lies outside its admissible domain."""


class ConfigError(SpcaLabError, ValueError):
    """Invalid experiment configuration (bad file, bad flag, bad value)."""


class WorkerError(SpcaLabError, RuntimeError):
    """A forked ``--threads`` worker ended without sending its records."""


def _check_integers(**values) -> None:
    """DomainError unless every value is an integer; a bool is not one."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise DomainError(f"{name} must be an integer, got {value!r}")


def _check_real(**values) -> None:
    """DomainError unless every value is a real number; a bool is not one."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise DomainError(f"{name} must be a real number, got {value!r}")


def _check_finite(**values) -> None:
    """DomainError unless every value is a finite real number or None (left to a default)."""
    present = {name: value for name, value in values.items() if value is not None}
    _check_real(**present)
    for name, value in present.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")


def _array(value, name: str, dtype=float) -> np.ndarray:
    """``value`` as an array of ``dtype`` (None: numpy's, for indices); DomainError unless numeric."""
    try:
        return np.asarray(value, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} must be an array of real numbers ({exc})") from None


def _data_matrix(x) -> np.ndarray:
    """``_array(x, "x")``: DimensionError unless it is 2-d.

    An array neither C- nor Fortran-ordered (a column-strided view) is copied
    to C order: products and sums over it round otherwise than over the copy.
    """
    a = _array(x, "x")
    if a.ndim != 2:
        raise DimensionError(f"x must be a 2-d data matrix, got shape {a.shape}")
    return a if a.flags.c_contiguous or a.flags.f_contiguous else np.ascontiguousarray(a)


def _vector(v, name: str, dtype=float) -> np.ndarray:
    """``_array(v, name, dtype)``: DimensionError unless it is 1-d."""
    a = _array(v, name, dtype)
    if a.ndim != 1:
        raise DimensionError(f"{name} must be 1-d, got shape {a.shape}")
    return a
