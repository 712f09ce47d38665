"""The dual rank-one trick: the leading PC direction from an n x n eigenproblem.

The sample covariance of a d x n data matrix X is Sigma_hat = (1/n) X X^T.
For d >> n it is never formed here: the dual matrix S = (1/n) X^T X is only
n x n and shares the non-zero spectrum, and the leading left vector is
recovered as X v1 where v1 is the leading dual eigenvector.

S is numpy's Gram matrix ``a.T @ a`` divided by n, taken as it is: X is C-
or Fortran-ordered (``exceptions._data_matrix`` copies any other layout),
so numpy forms that product as one symmetric rank-k BLAS update and copies
it into both triangles, and S is exactly symmetric.
S is solved by one LAPACK ``eigh`` call (``numpy.linalg.eigh``), of which
only the leading pair is kept; for a fixed numerics stack the product and
the solve are repeatable run to run.  Gram + ``eigh`` is kept over a thin
SVD of X, which avoids squaring the condition number but measured 5-9x
slower at n = 25 on one BLAS thread (540 us against 93 us at d = 2000,
2.7 ms against 0.30 ms at d = 10,000).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateInputError, DimensionError, NumericError, _data_matrix

# Relative eigengap below which the leading dual eigenvector is flagged
# as ambiguous (multiple leading eigenvalue).
AMBIGUITY_REL_GAP = 1e-12


@dataclass(frozen=True)
class DualComponent:
    """Leading dual eigenvector and its lift back to d dimensions.

    Attributes
    ----------
    v1 : (n,) ndarray
        Leading unit eigenvector of S = (1/n) X^T X.
    u_tilde : (d,) ndarray
        X @ v1, the unnormalized leading left vector.  Normalizing it gives
        the leading eigenvector of the d x d sample covariance.
    value : float
        Leading eigenvalue of S.
    ambiguous : bool
        True when the top dual eigengap is below ``AMBIGUITY_REL_GAP``
        (relative); v1 is still returned under a deterministic tie-break
        (the first tied top eigenvector in ``eigh``'s order, canonical sign).
    """

    v1: np.ndarray
    u_tilde: np.ndarray
    value: float
    ambiguous: bool


def canonical_sign(v: np.ndarray) -> np.ndarray:
    """Flip ``v`` so its largest-|entry| coordinate is non-negative.

    Ties are broken toward the lowest index (argmax behaviour).  The input
    is returned unchanged when already canonical.
    """
    i = int(np.argmax(np.abs(v)))
    if v[i] < 0:
        return -v
    return v


def dual_first_component(x: np.ndarray) -> DualComponent:
    """Leading PC direction of a d x n matrix via the n x n dual matrix.

    Forms S = (1/n) X^T X, keeps the leading eigenpair of one
    ``numpy.linalg.eigh`` call, and lifts the eigenvector back as
    u_tilde = X v1.

    Raises
    ------
    DomainError, DimensionError
        If ``x`` does not hold numbers, or is not 2-d (``exceptions._data_matrix``).
    NumericError
        If S has non-finite entries (which it has whenever ``x`` has one, or
        when a finite ``x`` overflows it), or the eigensolve fails.
    DegenerateInputError
        If ``x`` is identically zero.
    """
    a = _data_matrix(x)
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise DimensionError("data matrix must have at least one row and column")
    if not a.any():
        raise DegenerateInputError("data matrix is identically zero")

    n = a.shape[1]
    # Each x_ij^2 lands on S's diagonal, so a NaN or inf in X makes S
    # non-finite, and so does a finite X that overflows its Gram matrix; the
    # check below turns either into a NumericError instead of a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        s = (a.T @ a) / n
    if not np.isfinite(s).all():
        raise NumericError("data matrix or its dual X^T X / n contains non-finite entries")
    try:
        values, vectors = np.linalg.eigh(s)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"dual eigensolve failed: {exc}") from exc
    # eigh returns ascending values, so argmax takes the lowest index among
    # tied top eigenvalues; the copy keeps v1 contiguous.
    top = int(np.argmax(values))
    v1 = canonical_sign(vectors[:, top].copy())
    lead = float(values[top])
    ambiguous = False
    if n > 1:
        gap = lead - float(values[-2])
        ambiguous = gap <= AMBIGUITY_REL_GAP * abs(lead)
    u_tilde = a @ v1
    return DualComponent(v1=v1, u_tilde=u_tilde, value=lead, ambiguous=ambiguous)
