"""Exception types shared across the package."""


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
