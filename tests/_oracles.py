"""Independent brute-force oracles used by the test suite.

These deliberately avoid the code paths they check: the eigenvalue oracle
goes through the characteristic polynomial (Faddeev-LeVerrier) and interval
bisection, the thresholding oracle minimizes the penalized scalar loss
by staged grid refinement, and the counterexample oracle scores each draw
through the full dual PCA estimator.  The rspca, angle and support-error
references are the straightforward forms (``np.linalg.norm`` angles, a new
penalty every step, boolean-mask counts) that the library's kernels must
match bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from spcalab.eigen import dual_first_component
from spcalab.estimators import (
    RSPCA_MAX_ITER,
    RSPCA_SUPPORT_STABLE,
    RSPCA_TOL_DEG,
    LoadingVector,
    RspcaIteration,
    RspcaTrace,
    pca_first,
)
from spcalab.metrics import default_lambda_grid, frobenius_sq, select_lambda_bic
from spcalab.model import as_matrix, sample_counterexample
from spcalab.penalties import PenaltySpec, threshold


def charpoly_coefficients(a: np.ndarray) -> np.ndarray:
    """Characteristic polynomial coefficients via Faddeev-LeVerrier.

    Returns [1, c1, ..., cn] with p(x) = x^n + c1 x^(n-1) + ... + cn.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    coeffs = [1.0]
    m = np.eye(n)
    c = 1.0
    for k in range(1, n + 1):
        if k > 1:
            m = a @ m + c * np.eye(n)
        c = -np.trace(a @ m) / k
        coeffs.append(c)
    return np.array(coeffs)


def eigenvalues_by_bisection(a: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """All eigenvalues of a symmetric matrix with distinct spectrum.

    Scans the characteristic polynomial for sign changes on a fine grid
    bounded by the Gershgorin radius, then bisects each bracket.
    """
    coeffs = charpoly_coefficients(a)
    r = float(np.max(np.sum(np.abs(a), axis=1))) + 1.0
    grid = np.linspace(-r, r, 20001)
    vals = np.polyval(coeffs, grid)
    roots = []
    for i in np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0):
        lo, hi = grid[i], grid[i + 1]
        flo = np.polyval(coeffs, lo)
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            fm = np.polyval(coeffs, mid)
            if flo * fm <= 0:
                hi = mid
            else:
                lo, flo = mid, fm
        roots.append(0.5 * (lo + hi))
    return np.array(sorted(roots, reverse=True))


def penalty_value(t, penalty: PenaltySpec) -> np.ndarray:
    """p_lambda(|t|) for the 0.5-quadratic surrogate, componentwise.

    The objective ``brute_force_prox`` minimizes; each family's closed-form
    rule in ``spcalab.penalties.threshold`` is its minimizer.
    """
    at = np.abs(np.asarray(t, dtype=float))
    lam = penalty.lam
    if penalty.family == "soft":
        return lam * at
    if penalty.family == "hard":
        return 0.5 * (lam * lam - np.square(np.maximum(lam - at, 0.0)))
    a = penalty.scad_a
    low = lam * at
    with np.errstate(invalid="ignore"):
        mid = (2.0 * a * lam * at - at * at - lam * lam) / (2.0 * (a - 1.0))
    high = (a + 1.0) * lam * lam / 2.0
    return np.where(at <= lam, low, np.where(at <= a * lam, mid, high))

def brute_force_prox(x: float, penalty: PenaltySpec, stages: int = 3, points: int = 2001) -> float:
    """argmin_u 0.5*(x-u)^2 + p_lambda(|u|) by staged grid refinement."""
    span = abs(x) + penalty.scad_a * penalty.lam + 1.0
    lo, hi = -span, span
    u = 0.0
    for _ in range(stages):
        grid = np.linspace(lo, hi, points)
        loss = 0.5 * np.square(grid - x) + penalty_value(grid, penalty)
        u = float(grid[int(np.argmin(loss))])
        step = (hi - lo) / (points - 1)
        lo, hi = u - 2.0 * step, u + 2.0 * step
    return u


def prox_loss(u, x: float, penalty: PenaltySpec):
    """The scalar surrogate itself, for loss-level comparisons."""
    u = np.asarray(u, dtype=float)
    return 0.5 * np.square(u - x) + penalty_value(u, penalty)


#: (x, lambda) grid for the threshold-rule acceptance check.  The lambda
#: values keep a > 5e-3 distance from every |x| so the hard rule's
#: discontinuity at |x| = lambda cannot straddle a grid cell.
THRESHOLD_X_GRID = np.linspace(-5.0, 5.0, 100)
THRESHOLD_LAMBDA_GRID = np.geomspace(0.073, 2.93, 20)


def counterexample_hits_by_pca(dims, alpha: float, reps: int, base_seed: int) -> list[int]:
    """Per-d count of draws whose first sample PC peaks at coordinate 0.

    Each n=1 draw goes through ``pca_first`` (Gram, ``eigh``, lift,
    normalize), on the same per-(d, rep) streams as ``run_counterexample``.
    """
    hits = []
    for di, d in enumerate(dims):
        count = 0
        for rep in range(reps):
            seed = np.random.SeedSequence(base_seed, spawn_key=(di, rep))
            est = pca_first(sample_counterexample(d, alpha, 1, seed))
            count += int(np.argmax(np.abs(est.entries))) == 0
        hits.append(count)
    return hits


def angle_degrees_reference(u, v) -> float:
    """The angle metric through ``np.linalg.norm`` at every norm."""
    a = np.asarray(getattr(u, "entries", u), dtype=float)
    b = np.asarray(getattr(v, "entries", v), dtype=float)
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 90.0
    c = float(a @ b) / (na * nb)
    if abs(c) < 0.9:
        return math.degrees(math.acos(abs(c)))
    ah = a / na
    bh = b / nb if c >= 0 else -(b / nb)
    chord = float(np.linalg.norm(ah - bh))
    return math.degrees(2.0 * math.asin(min(chord / 2.0, 1.0)))


def support_errors_reference(estimate, truth_support) -> tuple[float, float]:
    """Type I and Type II errors from a boolean truth mask and its complement."""
    e = np.asarray(getattr(estimate, "entries", estimate), dtype=float)
    d = e.shape[0]
    mask = np.zeros(d, dtype=bool)
    mask[np.asarray(truth_support, dtype=int)] = True
    k = int(mask.sum())
    type1 = float(np.count_nonzero(e[mask] == 0.0)) / k
    type2 = float(np.count_nonzero(e[~mask])) / (d - k) if d > k else 0.0
    return type1, type2


def _loading_reference(vec) -> LoadingVector:
    nrm = float(np.linalg.norm(vec))
    if nrm == 0.0:
        return LoadingVector(entries=np.zeros_like(vec), normalized=False)
    return LoadingVector(entries=vec / nrm, normalized=True)


def rspca_reference(
    x,
    penalty: PenaltySpec,
    *,
    max_iter: int = RSPCA_MAX_ITER,
    bic_per_iteration: bool = False,
    lambda_grid=None,
    dual=None,
    fro2=None,
):
    """``rspca`` as a plain loop: every norm by ``np.linalg.norm`` and the
    penalty rebuilt with ``with_lambda`` at every step."""
    xm = as_matrix(x)
    dc = dual if dual is not None else dual_first_component(xm)
    trace = RspcaTrace(init_ambiguous=dc.ambiguous)

    grid = None
    if bic_per_iteration:
        grid = lambda_grid if lambda_grid is not None else default_lambda_grid(dc.u_tilde)
        if fro2 is None:
            fro2 = frobenius_sq(xm)

    u_old = dc.u_tilde
    v = dc.v1
    lam = penalty.lam
    prev_support = None
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
        u_new = threshold(xv, penalty.with_lambda(lam))

        supp = u_new != 0
        if not supp.any():
            trace.iterations.append(RspcaIteration(lam, 0, 90.0, sigma2, bic_total))
            trace.zero_terminated = True
            trace.converged = True
            u_old = u_new
            break

        ang = angle_degrees_reference(u_new, u_old)
        trace.iterations.append(
            RspcaIteration(lam, int(supp.sum()), ang, sigma2, bic_total)
        )
        u_old = u_new
        if ang <= RSPCA_TOL_DEG:
            trace.converged = True
            break
        if prev_support is not None and np.array_equal(supp, prev_support):
            stable += 1
            if stable >= RSPCA_SUPPORT_STABLE:
                trace.converged = True
                break
        else:
            stable = 0
        prev_support = supp

        xtu = xm.T @ u_new
        nrm = float(np.linalg.norm(xtu))
        if nrm == 0.0:
            trace.zero_terminated = True
            trace.converged = True
            break
        v = xtu / nrm

    return _loading_reference(u_old), trace
