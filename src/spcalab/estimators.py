"""The estimators under study: dual PCA, simple thresholding, the iterative
penalized rank-one algorithm, and the oracle subspace estimator.

All estimators are pure functions of the data matrix.  Sparsity is always
judged on exact zeros: thresholding writes literal zeros and normalization
preserves them, so the support of a returned vector is well-defined without
any epsilon.  Each estimate is a 1-d float64 array of length d: unit-norm,
or all exact zeros when thresholding removed every entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .eigen import DualComponent, dual_first_component
from .exceptions import DimensionError, DomainError
from .metrics import (
    _angle, _bic_selection, _checked_grid, _norm, _support_mask, frobenius_sq,
)
from .penalties import PenaltySpec, threshold
from .theory import _check_integers

#: Convergence tolerance on the angle change between iterates, degrees.
RSPCA_TOL_DEG = 1e-8
RSPCA_MAX_ITER = 200
#: Stop once the support is unchanged across this many consecutive updates.
RSPCA_SUPPORT_STABLE = 2


def _unit(vec: np.ndarray) -> np.ndarray:
    """``vec`` scaled to unit norm, or all exact zeros when ``vec`` is zero."""
    nrm = _norm(vec)
    if nrm == 0.0:
        return np.zeros_like(vec)
    return vec / nrm


@dataclass(frozen=True)
class RspcaIteration:
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

    Each iterate's norm is computed once and carried to the next step's
    angle, and the penalty is rebuilt only when BIC selects a new lambda.

    Returns the loading vector and the iteration trace.  If some update
    thresholds every entry away, iteration stops with the all-zero vector
    and ``trace.zero_terminated`` set.
    """
    _check_integers(max_iter=max_iter)
    if max_iter < 1:
        raise DomainError(f"max_iter must be >= 1, got {max_iter}")
    xm = np.asarray(x, dtype=float)
    if xm.ndim != 2:
        raise DimensionError(f"expected a 2-d data matrix, got shape {xm.shape}")
    dc = dual if dual is not None else dual_first_component(xm)
    trace = RspcaTrace(init_ambiguous=dc.ambiguous)

    if lambda_grid is not None:
        lambda_grid = _checked_grid(lambda_grid)
        fro2 = frobenius_sq(xm)

    u_old = dc.u_tilde
    norm_old = _norm(u_old)
    v = dc.v1
    lam = penalty.lam
    step_penalty = penalty
    prev_support: np.ndarray | None = None
    stable = 0

    for it in range(max_iter):
        xv = dc.u_tilde if it == 0 else xm @ v
        sigma2 = bic_total = None
        if lambda_grid is not None:
            sel = _bic_selection(xv, fro2, xm.shape[1], lambda_grid, penalty)
            lam, sigma2, bic_total = sel.lambda_star, sel.sigma2, sel.total
            if lam != step_penalty.lam:
                step_penalty = penalty.with_lambda(lam)
        u_new = threshold(xv, step_penalty)

        supp = u_new != 0
        nnz = int(np.count_nonzero(supp))
        norm_new = _norm(u_new)
        ang = _angle(u_new, u_old, norm_new, norm_old)  # 90 when every entry is thresholded away
        trace.iterations.append(RspcaIteration(lam, nnz, ang, sigma2, bic_total))
        u_old = u_new
        norm_old = norm_new
        if nnz == 0:
            trace.zero_terminated = trace.converged = True
            break
        if ang <= RSPCA_TOL_DEG:
            trace.converged = True
            break
        if prev_support is not None and (supp == prev_support).all():
            stable += 1
            if stable >= RSPCA_SUPPORT_STABLE:
                trace.converged = True
                break
        else:
            stable = 0
        prev_support = supp

        xtu = xm.T @ u_new
        nrm = _norm(xtu)
        if nrm == 0.0:
            trace.zero_terminated = trace.converged = True
            break
        v = xtu / nrm

    return _unit(u_old), trace


def oracle_estimator(x, support) -> np.ndarray:
    """Subspace PCA restricted to a known support, embedded with exact zeros.

    ``support`` holds integer row indices; a boolean mask is rejected.
    """
    xm = np.asarray(x, dtype=float)
    # Sorted and deduplicated through a mask: np.unique would import numpy.ma.
    idx = np.flatnonzero(_support_mask(support, xm.shape[0], "support"))
    full = np.zeros(xm.shape[0])
    full[idx] = _unit(dual_first_component(xm[idx, :]).u_tilde)
    return full
