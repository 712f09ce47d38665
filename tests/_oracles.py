"""Independent brute-force oracles used by the test suite.

These deliberately avoid the code paths they check: the eigenvalue oracle
goes through the characteristic polynomial (Faddeev-LeVerrier) and interval
bisection, the thresholding oracle minimizes the penalized scalar loss
by staged grid refinement, and the counterexample oracle scores each draw
through the full dual PCA estimator.  The rspca, angle and support-error
references are the straightforward forms (``np.linalg.norm`` angles, a new
penalty every step, boolean-mask counts) that the library's kernels must
match bit for bit.

The package keeps only what its studies read; these are the definitions it
dropped, kept here as references:

* ``population_eigenvalues`` and ``population_basis``: the spiked model's
  full spectrum and d x d eigenbasis (the package forms only u1);
* ``bic``: the BIC of one candidate at one lambda, from its own X v1,
  ||X||_F^2 and sigma2, the brute-force reference for ``select_lambda_bic``;
* ``sample_counterexample``: the counterexample law as a d x n matrix
  sampler, the reference for ``counterexample_hits``;
* ``counterexample_hits_reference``: the per-draw scorer through one
  ``Generator(Philox(key))`` per key, the reference for the package's
  batched numpy Philox;
* ``summarize_reference``: the summary table from one ``np.percentile`` and
  ``np.median`` call per statistic and group, the reference for
  ``experiment._summarize``'s quartiles and medians read from one sort;
* ``threshold_scalar``: ``threshold`` on one float, which the scalar
  thresholding checks compare against ``brute_force_prox``;
* ``fit_rate``: the decay exponent of the alignment gap across dimensions,
  which acceptance criterion 7 reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from spcalab.eigen import dual_first_component
from spcalab.estimators import (
    RSPCA_MAX_ITER,
    RSPCA_SUPPORT_STABLE,
    RSPCA_TOL_DEG,
    RspcaIteration,
    RspcaTrace,
    pca_first,
)
from spcalab.exceptions import DimensionError, DomainError
from spcalab.experiment import SummaryRow
from spcalab.metrics import BicValue, frobenius_sq, select_lambda_bic
from spcalab.model import DataMatrix, SpikedSpec
from spcalab.penalties import PenaltySpec, threshold
from spcalab.theory import counterexample_tail_probability


def population_eigenvalues(spec: SpikedSpec) -> np.ndarray:
    """The population spectrum ``(d**alpha, 1, ..., 1)``."""
    lam = np.ones(spec.d)
    lam[0] = spec.lambda1
    return lam


def population_basis(spec: SpikedSpec) -> np.ndarray:
    """The d x d population eigenbasis, eigenvector i in column i.

    Column 0 is u1, ``m**-0.5`` on the first m coordinates; column i < m is
    c on rows 0..i-1 and -i c on row i with c = 1/sqrt(i(i+1)), the Helmert
    completion of the head block; column i >= m is the coordinate vector e_i.
    """
    d, m = spec.d, spec.support_size
    u = np.zeros((d, d))
    u[:m, 0] = m ** -0.5
    for i in range(1, m):
        c = 1.0 / math.sqrt(i * (i + 1.0))
        u[:i, i] = c
        u[i, i] = -i * c
    tail = np.arange(m, d)
    u[tail, tail] = 1.0
    return u


def bic(x, v1, candidate, lam: float) -> BicValue:
    """BIC of one thresholded candidate u for the regression with design v1.

    RSS = ||X - u v1^T||_F^2 = ||X||_F^2 - 2 u.(X v1) + ||u||^2 for unit v1,
    scaled by nd sigma2 with sigma2 the OLS residual variance, plus
    log(nd)/nd per non-zero entry of u.
    """
    xm = np.asarray(x, dtype=float)
    v = np.asarray(v1, dtype=float)
    u = np.asarray(candidate, dtype=float)
    d, n = xm.shape
    if v.shape != (n,) or u.shape != (d,):
        raise DimensionError(f"v1 {v.shape} and candidate {u.shape} do not fit x {xm.shape}")
    xv = xm @ v
    fro2 = frobenius_sq(xm)
    nd = n * d
    rss_ols = max(fro2 - float(xv @ xv), 0.0)
    sigma2 = rss_ols / (nd - d) if nd > d else 0.0
    rss = max(fro2 - 2.0 * float(u @ xv) + float(u @ u), 0.0)
    df = int(np.count_nonzero(u))
    df_term = math.log(nd) / nd * df
    if sigma2 > 0.0:
        rss_term = rss / (nd * sigma2)
        return BicValue(lam, rss_term, df_term, rss_term + df_term, df, sigma2)
    # Perfect rank-one fit: the residual scale is empty, keep the df term.
    return BicValue(lam, 0.0, df_term, df_term, df, sigma2, degenerate=True)


def sample_counterexample(d: int, alpha: float, n: int, seed) -> DataMatrix:
    """Discrete heavy-coordinate sampler that defeats thresholding.

    Coordinates are independent: the first is +-d**(alpha/2) with equal
    probability, and each of the others is +-d**((alpha+1)/4) with
    probability d**(-(alpha+1)/2) each, else 0.  Coordinate i of column j
    is read from uniform (i, j) of ``random((d, n))`` on the Philox stream
    of ``seed`` (an int or a ``SeedSequence``).

    Note: the tail coordinates have second moment exactly 2 (direct
    evaluation of the two-point mass), not 1.
    """
    p = counterexample_tail_probability(d, alpha)
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")

    u = np.random.Generator(np.random.Philox(seed)).random((d, n))
    x = np.zeros((d, n))
    spike = d ** (alpha / 2.0)
    x[0] = np.where(u[0] < 0.5, spike, -spike)
    mag = d ** ((alpha + 1.0) / 4.0)
    x[1:] = np.where(u[1:] < p, mag, np.where(u[1:] < 2.0 * p, -mag, 0.0))
    return DataMatrix(x=x)


def counterexample_hits_reference(d: int, alpha: float, keys) -> int:
    """``counterexample_hits`` with one numpy ``Generator(Philox(key))`` per draw.

    A draw is a hit when every tail uniform of ``random(d)`` is >= 2p.
    """
    zero_from = 2.0 * counterexample_tail_probability(d, alpha)
    return sum(
        np.random.Generator(np.random.Philox(key=key)).random(d)[1:].min() >= zero_from
        for key in keys
    )


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


def threshold_scalar(x: float, penalty: PenaltySpec) -> float:
    """Scalar form of ``threshold``."""
    return float(threshold(np.asarray(x, dtype=float), penalty))


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
            est = pca_first(sample_counterexample(d, alpha, 1, seed).x)
            count += int(np.argmax(np.abs(est))) == 0
        hits.append(count)
    return hits


def angle_degrees_reference(u, v) -> float:
    """The angle metric through ``np.linalg.norm`` at every norm."""
    a = np.asarray(u, dtype=float)
    b = np.asarray(v, dtype=float)
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
    e = np.asarray(estimate, dtype=float)
    d = e.shape[0]
    mask = np.zeros(d, dtype=bool)
    mask[np.asarray(truth_support, dtype=int)] = True
    k = int(mask.sum())
    type1 = float(np.count_nonzero(e[mask] == 0.0)) / k
    type2 = float(np.count_nonzero(e[~mask])) / (d - k) if d > k else 0.0
    return type1, type2


def _unit_reference(vec) -> np.ndarray:
    nrm = float(np.linalg.norm(vec))
    if nrm == 0.0:
        return np.zeros_like(vec)
    return vec / nrm


def rspca_reference(
    x,
    penalty: PenaltySpec,
    *,
    max_iter: int = RSPCA_MAX_ITER,
    lambda_grid=None,
    dual=None,
):
    """``rspca`` as a plain loop: every norm by ``np.linalg.norm``, the
    penalty rebuilt with ``with_lambda`` and, given ``lambda_grid``, lambda
    selected by the public ``select_lambda_bic`` at every step."""
    xm = np.asarray(x, dtype=float)
    dc = dual if dual is not None else dual_first_component(xm)
    trace = RspcaTrace(init_ambiguous=dc.ambiguous)

    u_old = dc.u_tilde
    v = dc.v1
    lam = penalty.lam
    prev_support = None
    stable = 0

    for it in range(max_iter):
        xv = dc.u_tilde if it == 0 else xm @ v
        sigma2 = None
        bic_total = None
        if lambda_grid is not None:
            sel = select_lambda_bic(xm, v, lambda_grid, penalty)
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

    return _unit_reference(u_old), trace


def summarize_reference(records) -> list[SummaryRow]:
    groups: dict[tuple, list] = {}
    for r in records:
        if r.final:
            groups.setdefault((r.alpha, r.beta, r.method), []).append(r)
    out = []
    for (alpha, beta, method), rows in sorted(groups.items()):
        ang = np.array([r.angle_deg for r in rows])
        t1 = np.array([r.type1 for r in rows])
        t2 = np.array([r.type2 for r in rows])
        dfv = np.array([r.df for r in rows], dtype=float)
        lams = [r.lam for r in rows if r.lam is not None]
        out.append(SummaryRow(
            alpha=alpha, beta=beta, method=method, count=len(rows),
            lambda_median=float(np.median(lams)) if lams else None,
            df_median=float(np.median(dfv)),
            angle_q25=float(np.percentile(ang, 25)),
            angle_median=float(np.percentile(ang, 50)),
            angle_q75=float(np.percentile(ang, 75)),
            type1_q25=float(np.percentile(t1, 25)),
            type1_median=float(np.percentile(t1, 50)),
            type1_q75=float(np.percentile(t1, 75)),
            type2_q25=float(np.percentile(t2, 25)),
            type2_median=float(np.percentile(t2, 50)),
            type2_q75=float(np.percentile(t2, 75)),
        ))
    return out


#: Floor applied to alignment gaps before taking logs in fit_rate.
GAP_FLOOR = 1e-15


@dataclass(frozen=True)
class RateDiagnostic:
    """Fitted rate exponent from alignment gaps across dimensions."""

    varsigma_hat: float
    dims: tuple[int, ...]
    gaps: tuple[float, ...]


def fit_rate(points) -> RateDiagnostic:
    """Least-squares slope of log(gap) on log(d); varsigma_hat = -2 * slope.

    ``points`` is a sequence of (d, gap) with gap = 1 - |<u_hat, u1>|
    averaged over replications upstream.  Gaps are floored at GAP_FLOOR
    to avoid log(0) for numerically exact estimates.
    """
    pts = sorted((int(d), float(g)) for d, g in points)
    if len(pts) < 3:
        raise DomainError("need at least 3 (d, gap) points")
    dims = tuple(p[0] for p in pts)
    if len(set(dims)) != len(dims):
        raise DomainError("dimensions must be distinct")
    if any(d < 2 for d in dims):
        raise DomainError("dimensions must be >= 2")
    if any(g < 0 for _, g in pts):
        raise DomainError("gaps must be non-negative")
    gaps = tuple(max(g, GAP_FLOOR) for _, g in pts)
    slope = float(np.polyfit(np.log(dims), np.log(gaps), 1)[0])
    return RateDiagnostic(varsigma_hat=-2.0 * slope, dims=dims, gaps=gaps)
