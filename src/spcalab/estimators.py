"""The estimators under study: dual PCA, simple thresholding, the iterative
penalized rank-one algorithm, and the oracle subspace estimator.

All estimators are pure functions of the data matrix.  Sparsity is always
judged on exact zeros: thresholding writes literal zeros and normalization
preserves them, so the support of a returned vector is well-defined without
any epsilon.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .eigen import DualComponent, dual_first_component
from .exceptions import DomainError
from .metrics import _angle, _norm, default_lambda_grid, frobenius_sq, select_lambda_bic
from .model import as_matrix
from .penalties import PenaltySpec, threshold

#: Convergence tolerance on the angle change between iterates, degrees.
RSPCA_TOL_DEG = 1e-8
RSPCA_MAX_ITER = 200
#: Stop once the support is unchanged across this many consecutive updates.
RSPCA_SUPPORT_STABLE = 2


@dataclass(frozen=True)
class LoadingVector:
    """A loading vector with exact-zero support semantics.

    ``entries`` is unit-norm when ``normalized`` is True; an all-zero vector
    (every entry thresholded away) carries ``normalized=False`` and is
    treated as 90 degrees from everything by the angle metric.
    """

    entries: np.ndarray
    normalized: bool

    @classmethod
    def from_raw(cls, vec: np.ndarray) -> "LoadingVector":
        nrm = _norm(vec)
        if nrm == 0.0:
            return cls(entries=np.zeros_like(vec), normalized=False)
        return cls(entries=vec / nrm, normalized=True)

    @property
    def d(self) -> int:
        return self.entries.shape[0]

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.entries)

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.entries))

    @property
    def is_zero(self) -> bool:
        return not self.entries.any()


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

    @property
    def final_lambda(self) -> float | None:
        return self.iterations[-1].lam if self.iterations else None


def pca_first(x, *, dual: DualComponent | None = None) -> LoadingVector:
    """Leading sample PC loading vector via the dual transformation.

    ``dual`` lets a harness reuse a precomputed dual factorization; the
    result is identical to computing it here.
    """
    xm = as_matrix(x)
    dc = dual if dual is not None else dual_first_component(xm)
    return LoadingVector.from_raw(dc.u_tilde)


def st_estimator(x, lam: float, *, dual: DualComponent | None = None) -> LoadingVector:
    """Simple thresholding: zero small entries of X v1, then normalize.

    Entries with |u_tilde_i| <= lam become exact zeros.  If everything is
    thresholded away the returned vector is the flagged all-zero vector.
    """
    if lam < 0:
        raise DomainError(f"lambda must be >= 0, got {lam}")
    xm = as_matrix(x)
    dc = dual if dual is not None else dual_first_component(xm)
    breve = threshold(dc.u_tilde, PenaltySpec.hard(lam))
    return LoadingVector.from_raw(breve)


def rspca(
    x,
    penalty: PenaltySpec,
    *,
    max_iter: int = RSPCA_MAX_ITER,
    bic_per_iteration: bool = False,
    lambda_grid: np.ndarray | None = None,
    dual: DualComponent | None = None,
    fro2: float | None = None,
) -> tuple[LoadingVector, RspcaTrace]:
    """Alternating penalized rank-one approximation.

    Starting from the best rank-one approximation u_tilde v1^T of X, repeat

        u <- h_lambda(X v),    v <- X^T u / ||X^T u||

    until the angle change between successive u iterates falls below
    ``RSPCA_TOL_DEG`` degrees or the support is unchanged for
    ``RSPCA_SUPPORT_STABLE`` consecutive updates; the final u is normalized.

    With ``bic_per_iteration`` the thresholding parameter is re-selected by
    BIC at every update step over ``lambda_grid`` (built from the
    initialization when not supplied, and then fixed for the whole run).
    The per-step sigma^2 and BIC totals are recorded in the trace.  ``fro2``
    is ||X||_F^2 when the caller already has it, as in ``select_lambda_bic``.

    Each iterate's norm is computed once and carried to the next step's
    angle, and the penalty is rebuilt only when BIC selects a new lambda.

    Returns the loading vector and the iteration trace.  If some update
    thresholds every entry away, iteration stops with the all-zero vector
    and ``trace.zero_terminated`` set.
    """
    if max_iter < 1:
        raise DomainError(f"max_iter must be >= 1, got {max_iter}")
    xm = as_matrix(x)
    dc = dual if dual is not None else dual_first_component(xm)
    trace = RspcaTrace(init_ambiguous=dc.ambiguous)

    grid = None
    if bic_per_iteration:
        grid = lambda_grid if lambda_grid is not None else default_lambda_grid(dc.u_tilde)
        if fro2 is None:
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
        sigma2 = None
        bic_total = None
        if bic_per_iteration:
            sel = select_lambda_bic(xm, v, grid, penalty, xv=xv, fro2=fro2)
            lam = sel.lambda_star
            sigma2 = sel.sigma2
            bic_total = sel.total
            if lam != step_penalty.lam:
                step_penalty = penalty.with_lambda(lam)
        u_new = threshold(xv, step_penalty)

        supp = u_new != 0
        nnz = int(np.count_nonzero(supp))
        if nnz == 0:
            trace.iterations.append(RspcaIteration(lam, 0, 90.0, sigma2, bic_total))
            trace.zero_terminated = True
            trace.converged = True
            u_old = u_new
            break

        norm_new = _norm(u_new)
        ang = _angle(u_new, u_old, norm_new, norm_old)
        trace.iterations.append(RspcaIteration(lam, nnz, ang, sigma2, bic_total))
        u_old = u_new
        norm_old = norm_new
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
            trace.zero_terminated = True
            trace.converged = True
            break
        v = xtu / nrm

    return LoadingVector.from_raw(u_old), trace


def oracle_estimator(x, support, *, dual: DualComponent | None = None) -> LoadingVector:
    """Subspace PCA restricted to a known support, embedded with exact zeros.

    ``dual`` may carry a precomputed factorization of the restricted
    submatrix x[support, :].
    """
    xm = as_matrix(x)
    idx = np.unique(np.asarray(support, dtype=int))
    if idx.size == 0:
        raise DomainError("support must be non-empty")
    if idx.min() < 0 or idx.max() >= xm.shape[0]:
        raise DomainError("support indices outside [0, d)")
    sub = xm[idx, :]
    dc = dual if dual is not None else dual_first_component(sub)
    star = LoadingVector.from_raw(dc.u_tilde)
    full = np.zeros(xm.shape[0])
    full[idx] = star.entries
    return LoadingVector(entries=full, normalized=star.normalized)
