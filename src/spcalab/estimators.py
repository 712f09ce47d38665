"""The estimators under study: dual PCA, simple thresholding, the iterative
penalized rank-one algorithm, and the oracle subspace estimator.

All estimators are pure functions of the data matrix.  Sparsity is always
judged on exact zeros: thresholding writes literal zeros and normalization
preserves them, so the support of a returned vector is well-defined without
any epsilon.  Each estimate is a 1-d float64 array of length d: unit-norm,
or all exact zeros when thresholding removed every entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .eigen import DualComponent, dual_first_component
from .exceptions import DomainError, _check_integers, _data_matrix
from .metrics import _angle, _bic_selection, _checked_grid, _norm, _support_mask, frobenius_sq
from .penalties import PenaltySpec, _threshold, threshold

#: Convergence tolerance on the angle change between iterates, degrees.
RSPCA_TOL_DEG = 1e-8
RSPCA_MAX_ITER = 200
#: Stop once the support is unchanged across this many consecutive updates.
RSPCA_SUPPORT_STABLE = 2


def _check_max_iter(max_iter: int) -> None:
    """rspca's iteration cap: an integer >= 1."""
    _check_integers(max_iter=max_iter)
    if max_iter < 1:
        raise DomainError(f"max_iter must be >= 1, got {max_iter}")


def _unit(vec: np.ndarray) -> np.ndarray:
    """``vec`` scaled to unit norm, or all exact zeros when ``vec`` is zero."""
    nrm = _norm(vec)
    if nrm == 0.0:
        return np.zeros_like(vec)
    return vec / nrm


class RspcaIteration(NamedTuple):
    """Observability record for one update step."""

    lam: float
    support_size: int
    angle_change_deg: float
    sigma2: float | None = None
    bic_total: float | None = None


@dataclass
class RspcaTrace:
    iterations: list[RspcaIteration] = field(default_factory=list)
    converged: bool = False
    zero_terminated: bool = False
    init_ambiguous: bool = False

    @property
    def n_iterations(self) -> int:
        return len(self.iterations)


def pca_first(x, *, dual: DualComponent | None = None) -> np.ndarray:
    """Leading sample PC loading vector via the dual transformation.

    ``dual`` lets a harness reuse a precomputed dual factorization; the
    result is identical to computing it here.
    """
    dc = dual if dual is not None else dual_first_component(x)
    return _unit(dc.u_tilde)


def st_estimator(x, lam: float, *, dual: DualComponent | None = None) -> np.ndarray:
    """Simple thresholding: zero small entries of X v1, then normalize.

    Entries with |u_tilde_i| <= lam become exact zeros.  If everything is
    thresholded away the returned vector is all zeros.
    """
    penalty = PenaltySpec.hard(lam)  # raises on lam < 0, before any dual work
    dc = dual if dual is not None else dual_first_component(x)
    return _unit(threshold(dc.u_tilde, penalty))


def rspca(
    x,
    penalty: PenaltySpec,
    *,
    max_iter: int = RSPCA_MAX_ITER,
    lambda_grid: np.ndarray | None = None,
    dual: DualComponent | None = None,
) -> tuple[np.ndarray, RspcaTrace]:
    """Alternating penalized rank-one approximation.

    Starting from the best rank-one approximation u_tilde v1^T of X, repeat

        u <- h_lambda(X v),    v <- X^T u / ||X^T u||

    until the angle change between successive u iterates falls below
    ``RSPCA_TOL_DEG`` degrees or the support is unchanged for
    ``RSPCA_SUPPORT_STABLE`` consecutive updates; the final u is normalized.

    Without ``lambda_grid`` every step thresholds at ``penalty.lam``.  With
    one, BIC re-selects lambda over that grid at every update step, as
    ``select_lambda_bic(x, v, lambda_grid, penalty)`` selects it, and only
    the penalty's family and SCAD shape are read.  The grid is checked
    and ||X||_F^2 computed once per fit; each step is scored by
    ``select_lambda_bic``'s closed form without its per-call checks.  The
    per-step sigma^2 and BIC totals are recorded in the trace.

    One step costs the two O(nd) products X v and X^T u plus a few O(d)
    passes: |X v|, its mask and the thresholded values, the count and norm
    of the new iterate, and its angle to the last one (a dot product, and
    in the chord branch one division and one subtraction).  It reuses the
    threshold's own mask as the support, compares supports element-wise
    only when their sizes agree, carries each iterate's norm to the next
    step's angle, and keeps the unit vector the chord branch forms as the
    next step's other unit vector and, after the last step, as the
    estimate.  The penalty is rebuilt only when BIC selects a new lambda.

    Returns the loading vector and the iteration trace.  If some update
    thresholds every entry away, iteration stops with the all-zero vector
    and ``trace.zero_terminated`` set.
    """
    _check_max_iter(max_iter)
    xm = _data_matrix(x)
    dc = dual if dual is not None else dual_first_component(xm)
    trace = RspcaTrace(init_ambiguous=dc.ambiguous)

    if lambda_grid is not None:
        lambda_grid = _checked_grid(lambda_grid)
        fro2 = frobenius_sq(xm)

    append = trace.iterations.append
    u_old = dc.u_tilde
    norm_old = _norm(u_old)
    unit_old = None  # u_old / norm_old, once the chord branch has formed it
    v = dc.v1
    lam = penalty.lam
    step_penalty = penalty
    prev_support = None
    prev_nnz = -1
    stable = 0

    for it in range(max_iter):
        xv = dc.u_tilde if it == 0 else xm @ v
        sigma2 = bic_total = None
        if lambda_grid is not None:
            lam, bic_total, sigma2 = _bic_selection(xv, fro2, xm.shape[1], lambda_grid, penalty)[:3]
            if lam != step_penalty.lam:
                step_penalty = penalty.with_lambda(lam)
        u_new, supp = _threshold(xv, step_penalty)

        nnz = int(np.count_nonzero(supp))
        # _norm's arithmetic without its ravel: u_new and xtu are new 1-d arrays.
        norm_new = math.sqrt(u_new.dot(u_new))
        # 90 when every entry is thresholded away.
        ang, unit_new = _angle(u_new, u_old, norm_new, norm_old, unit_old)
        append(RspcaIteration(lam, nnz, ang, sigma2, bic_total))
        u_old, norm_old, unit_old = u_new, norm_new, unit_new
        if nnz == 0:
            trace.zero_terminated = trace.converged = True
            break
        if ang <= RSPCA_TOL_DEG:
            trace.converged = True
            break
        # Supports of different sizes differ; a bool mask holds one byte per entry.
        if nnz == prev_nnz and supp.tobytes() == prev_support.tobytes():
            stable += 1
            if stable >= RSPCA_SUPPORT_STABLE:
                trace.converged = True
                break
        else:
            stable = 0
        prev_support, prev_nnz = supp, nnz

        xtu = xm.T @ u_new
        nrm = math.sqrt(xtu.dot(xtu))
        if nrm == 0.0:
            trace.zero_terminated = trace.converged = True
            break
        v = xtu / nrm

    # The chord branch's unit vector is _unit(u_old), division for division.
    return (unit_old if unit_old is not None else _unit(u_old)), trace


def oracle_estimator(x, support) -> np.ndarray:
    """Subspace PCA restricted to a known support, embedded with exact zeros.

    ``support`` holds integer row indices; a boolean mask is rejected.
    """
    xm = _data_matrix(x)
    # Sorted and deduplicated through a mask: np.unique would import numpy.ma.
    idx = np.flatnonzero(_support_mask(support, xm.shape[0], "support"))
    full = np.zeros(xm.shape[0])
    full[idx] = _unit(dual_first_component(xm[idx, :]).u_tilde)
    return full
