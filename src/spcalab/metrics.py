"""Angles, support-recovery errors, BIC selection, and rate diagnostics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import DimensionError, DomainError
from .penalties import PenaltySpec

#: Floor applied to alignment gaps before taking logs in fit_rate.
GAP_FLOOR = 1e-15


def _entries(u) -> np.ndarray:
    return np.asarray(getattr(u, "entries", u), dtype=float)


def _norm(x: np.ndarray) -> float:
    """||x||_2 as ``np.linalg.norm`` computes it for a real array: sqrt(x . x).

    The ravel in memory order (a copy for a strided view) matches
    ``np.linalg.norm``, so the dot product, and so the bits, are the same.
    """
    x = x.ravel(order="K")
    return math.sqrt(x.dot(x))


def _angle(a: np.ndarray, b: np.ndarray, na: float, nb: float) -> float:
    """``angle_degrees`` of equal-shape float arrays with norms ``na``, ``nb``."""
    if na == 0.0 or nb == 0.0:
        return 90.0
    c = float(a @ b) / (na * nb)
    if abs(c) < 0.9:
        return math.degrees(math.acos(abs(c)))
    ah = a / na
    bh = b / nb
    # For c < 0 the chord is to -bh, and ah - (-bh) is ah + bh exactly.
    chord = _norm(ah - bh if c >= 0 else ah + bh)
    return math.degrees(2.0 * math.asin(min(chord / 2.0, 1.0)))


def angle_degrees(u, v) -> float:
    """Angle between the lines spanned by u and v, in [0, 90] degrees.

    arccos of the absolute inner product of the normalized vectors, so it
    is invariant to sign flips.  For nearly parallel vectors arccos cannot
    resolve below ~1e-6 degrees in double precision, so that regime is
    evaluated through the chord length instead (2*arcsin(|a - b|/2)),
    which is accurate down to ~1e-13 degrees.  If either argument is
    all-zero the angle is 90 by convention.
    """
    a = _entries(u)
    b = _entries(v)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch {a.shape} vs {b.shape}")
    return _angle(a, b, _norm(a), _norm(b))


def support_errors(estimate, truth_support, d: int | None = None) -> tuple[float, float]:
    """Support-recovery errors of an estimate against the true support.

    Type I is the fraction of true non-zero positions estimated as exactly
    zero; Type II is the fraction of true zero positions estimated as
    non-zero (0 when the truth has no zero positions).
    """
    e = _entries(estimate)
    truth = np.asarray(truth_support, dtype=int)
    if truth.size == 0:
        raise DomainError("truth support must be non-empty")
    if d is None:
        d = e.shape[0]
    if e.shape != (d,):
        raise DimensionError(f"estimate has length {e.shape[0]}, expected {d}")
    if truth.min() < 0 or truth.max() >= d:
        raise DomainError("truth support indices outside [0, d)")
    mask = np.zeros(d, dtype=bool)
    mask[truth] = True
    k = int(np.count_nonzero(mask))
    # Non-zeros inside the truth; the rest of the non-zeros lie outside it.
    inside = int(np.count_nonzero(e[mask]))
    type1 = (k - inside) / k
    type2 = (int(np.count_nonzero(e)) - inside) / (d - k) if d > k else 0.0
    return type1, type2


@dataclass(frozen=True)
class MetricRow:
    """Per-estimate metrics at one thresholding parameter."""

    angle_deg: float
    type1: float
    type2: float
    df: int
    lam: float | None


def evaluate_estimate(estimate, u1, truth_support, lam: float | None = None) -> MetricRow:
    """Bundle angle + support errors + sparsity for one estimate."""
    e = _entries(estimate)
    t1, t2 = support_errors(e, truth_support, e.shape[0])
    return MetricRow(
        angle_deg=angle_degrees(e, u1),
        type1=t1,
        type2=t2,
        df=int(np.count_nonzero(e)),
        lam=lam,
    )


# ---------------------------------------------------------------------------
# BIC for the row-wise regression reformulation
# ---------------------------------------------------------------------------
#
# For a fixed unit n-vector v, fitting u in ||X - u v^T||_F^2 is a stacked
# regression of Y = vec(rows of X) on the block design I_d (x) v with one
# coefficient per row; the OLS solution is u_ols = X v.  BIC trades the
# scaled residual sum of squares against log(nd)/nd per non-zero entry.
#
# For a componentwise threshold c of u = u_ols, RSS = RSS_ols + ||u - c||^2
# with RSS_ols = ||X||_F^2 - ||u||^2, and ||u - c||^2 depends only on which
# band of |u_i| each entry falls in (boundaries as in ``threshold``):
#
#   hard:  RSS = RSS_ols + sum_{|u_i| <= lam} u_i^2
#   soft:  RSS = RSS_ols + sum_{|u_i| <= lam} u_i^2 + df * lam^2
#   scad:  RSS = RSS_ols + sum_{|u_i| <= lam} u_i^2 + lam^2 * #{lam < |u_i| <= 2 lam}
#                + sum_{2 lam < |u_i| <= a lam} (a lam - |u_i|)^2 / (a - 2)^2
#
# with df = #{|u_i| > lam} in every family.  One sort of |u| plus prefix
# sums of |u| and u^2 therefore scores a whole lambda grid.


@dataclass(frozen=True)
class BicValue:
    """One BIC evaluation: total = rss_term + df_term."""

    lam: float
    rss_term: float
    df_term: float
    total: float
    df: int
    sigma2: float
    degenerate: bool = False


@dataclass(frozen=True, eq=False)
class LambdaSelection:
    """BIC over a lambda grid: the minimizer and the curve as arrays.

    ``total`` is the BIC at ``lambda_star``; ``lambdas``, ``totals``,
    ``dfs`` and ``rss`` are aligned with the grid.  ``values`` holds the
    per-lambda ``BicValue`` records and is built on first read.
    """

    lambda_star: float
    total: float
    sigma2: float
    lambdas: np.ndarray
    totals: np.ndarray
    dfs: np.ndarray
    rss: np.ndarray
    nd: int

    @cached_property
    def values(self) -> tuple[BicValue, ...]:
        return tuple(
            _bic_from_parts(lam, rss, df, self.nd, self.sigma2)
            for lam, rss, df in zip(self.lambdas.tolist(), self.rss.tolist(), self.dfs.tolist())
        )


def frobenius_sq(x) -> float:
    """||X||_F^2, the ``fro2`` input of ``select_lambda_bic``."""
    xm = np.asarray(getattr(x, "x", x), dtype=float)
    return float(np.einsum("ij,ij->", xm, xm))


def _bic_context(x, v1, xv=None, fro2=None) -> tuple[np.ndarray, float, float, int, int, float]:
    """(X v1, ||X||_F^2, RSS_ols, d, n, sigma2); ``xv``/``fro2`` reuse known values."""
    xm = np.asarray(getattr(x, "x", x), dtype=float)
    v = np.asarray(v1, dtype=float)
    if xm.ndim != 2:
        raise DimensionError("x must be a 2-d data matrix")
    d, n = xm.shape
    if v.shape != (n,):
        raise DimensionError(f"v1 has shape {v.shape}, expected ({n},)")
    if abs(_norm(v) - 1.0) > 1e-8:
        raise DomainError("v1 must be unit-norm")
    if xv is None:
        xv = xm @ v
    else:
        xv = np.asarray(xv, dtype=float)
        if xv.shape != (d,):
            raise DimensionError(f"xv has shape {xv.shape}, expected ({d},)")
    if fro2 is None:
        fro2 = frobenius_sq(xm)
    nd = n * d
    rss_ols = max(fro2 - float(xv @ xv), 0.0)
    sigma2 = rss_ols / (nd - d) if nd > d else 0.0
    return xv, fro2, rss_ols, d, n, sigma2


def _bic_from_parts(lam, rss, df, nd, sigma2) -> BicValue:
    df_term = math.log(nd) / nd * df
    if sigma2 > 0.0:
        rss_term = rss / (nd * sigma2)
        return BicValue(lam, rss_term, df_term, rss_term + df_term, df, sigma2)
    # Perfect rank-one fit: the residual scale is empty, keep the df term.
    return BicValue(lam, 0.0, df_term, df_term, df, sigma2, degenerate=True)


def bic(x, v1, candidate, lam: float) -> BicValue:
    """BIC of one thresholded candidate u for the regression with design v1."""
    xv, fro2, _, d, n, sigma2 = _bic_context(x, v1)
    u = _entries(candidate)
    if u.shape != (d,):
        raise DimensionError(f"candidate has length {u.shape[0]}, expected {d}")
    rss = max(fro2 - 2.0 * float(u @ xv) + float(u @ u), 0.0)
    df = int(np.count_nonzero(u))
    return _bic_from_parts(lam, rss, df, n * d, sigma2)


def select_lambda_bic(
    x,
    v1,
    grid,
    penalty: PenaltySpec | None = None,
    *,
    xv: np.ndarray | None = None,
    fro2: float | None = None,
) -> LambdaSelection:
    """Pick the grid lambda minimizing BIC; ties go to the larger lambda.

    Candidates are the componentwise thresholds of u_ols = X v1 under the
    penalty family (hard by default), scored in closed form from one sort
    of |u_ols|.  ``xv`` (= X v1) and ``fro2`` (= ||X||_F^2) let a caller
    that already holds them skip the two O(nd) passes.
    """
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size == 0:
        raise DomainError("lambda grid must be a non-empty 1-d array")
    if np.any(np.diff(g) < 0):
        raise DomainError("lambda grid must be ascending")
    if g[0] < 0:
        raise DomainError("lambda grid must be non-negative")
    fam = penalty if penalty is not None else PenaltySpec.hard(0.0)

    xv, _, rss_ols, d, n, sigma2 = _bic_context(x, v1, xv, fro2)
    nd = n * d
    au = np.sort(np.abs(xv))
    sq = np.concatenate(([0.0], np.cumsum(au * au)))
    k = np.searchsorted(au, g, side="right")  # entries thresholded to zero
    dfs = d - k
    excess = sq[k]
    if fam.family == "soft":
        excess = excess + dfs * (g * g)
    elif fam.family == "scad":
        a = fam.scad_a
        ab = np.concatenate(([0.0], np.cumsum(au)))
        k2 = np.searchsorted(au, 2.0 * g, side="right")
        k3 = np.searchsorted(au, a * g, side="right")
        al = a * g
        blend = (k3 - k2) * (al * al) - 2.0 * al * (ab[k3] - ab[k2]) + (sq[k3] - sq[k2])
        excess = excess + (k2 - k) * (g * g) + blend / (a - 2.0) ** 2
    rss = rss_ols + excess
    df_terms = math.log(nd) / nd * dfs
    totals = rss / (nd * sigma2) + df_terms if sigma2 > 0.0 else df_terms
    best = g.size - 1 - int(np.argmin(totals[::-1]))
    return LambdaSelection(
        lambda_star=float(g[best]),
        total=float(totals[best]),
        sigma2=sigma2,
        lambdas=g,
        totals=totals,
        dfs=dfs,
        rss=rss,
        nd=nd,
    )


def default_lambda_grid(
    u_tilde,
    lambda_min: float = 1e-3,
    lambda_max: float | None = None,
    points: int = 50,
) -> np.ndarray:
    """lambda = 0 plus ``points`` log-spaced values up to 1.5 * max|u_tilde|."""
    if points < 1:
        raise DomainError("points must be >= 1")
    if lambda_min <= 0:
        raise DomainError("lambda_min must be > 0")
    ut = _entries(u_tilde)
    hi = lambda_max if lambda_max is not None else 1.5 * float(np.max(np.abs(ut)))
    if hi <= lambda_min:
        hi = lambda_min
    return np.concatenate([[0.0], np.geomspace(lambda_min, hi, points)])


# ---------------------------------------------------------------------------
# Theorem-derived threshold range and convergence-rate diagnostic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LambdaBounds:
    """Threshold range [log(d)**delta * d**(theta/2), d**(gamma/2)].

    At finite d the range can be empty (lower > upper) even for admissible
    exponents; ``is_empty`` flags that case.
    """

    lower: float
    upper: float

    @property
    def is_empty(self) -> bool:
        return self.lower > self.upper


def theorem_lambda_bounds(d: int, theta: float, gamma: float, delta: float) -> LambdaBounds:
    """Evaluate the consistency threshold range at dimension d."""
    if d < 2:
        raise DomainError(f"d must be >= 2, got {d}")
    if delta <= 0.5:
        raise DomainError(f"delta must be > 1/2, got {delta}")
    if gamma <= theta:
        raise DomainError(f"gamma must exceed theta, got gamma={gamma} theta={theta}")
    lower = math.log(d) ** delta * d ** (theta / 2.0)
    upper = d ** (gamma / 2.0)
    return LambdaBounds(lower=lower, upper=upper)


def gamma_is_valid(gamma: float, theta: float, alpha: float, eta: float) -> bool:
    """Admissibility of the upper-bound exponent: theta < gamma < alpha - eta."""
    return theta < gamma < alpha - eta


def default_gamma(theta: float, alpha: float, eta: float) -> float | None:
    """Midpoint of the admissible gamma interval, or None when it is empty."""
    if alpha - eta <= theta:
        return None
    return 0.5 * (theta + (alpha - eta))


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
