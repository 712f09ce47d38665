"""Angles, support-recovery errors and BIC lambda selection; the array rules are ``exceptions``'.

The theorem's threshold range, which the sweep figures mark, is in ``theory``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import (DimensionError, DomainError, NumericError, _array, _check_finite,
                         _check_integers, _data_matrix, _vector)
from .penalties import PenaltySpec

#: Smallest non-zero lambda and number of log-spaced lambdas of the default grid.
DEFAULT_LAMBDA_MIN = 1e-3
DEFAULT_LAMBDA_POINTS = 50


def _norm(x: np.ndarray) -> float:
    """||x||_2 as ``np.linalg.norm`` computes it for a real array: sqrt(x . x).

    The ravel in memory order (a copy for a strided view) matches
    ``np.linalg.norm``, so the dot product, and so the bits, are the same.
    It is written out because norms run several times per fit and
    ``np.linalg.norm``'s argument handling costs more than the product: at
    d = 2,000 one call took about 0.9 us against 1.6 us (one core, best of 7).
    """
    x = x.ravel(order="K")
    return math.sqrt(x.dot(x))


def _angle(a: np.ndarray, b: np.ndarray, na: float, nb: float,
           bh: np.ndarray | None = None) -> tuple[float, np.ndarray | None]:
    """``angle_degrees`` of equal-shape float arrays with norms ``na``, ``nb``.

    Also returns ``a / na`` when the chord branch formed it, else None; that
    branch takes ``b / nb`` as ``bh`` when the caller already has it.
    """
    if na == 0.0 or nb == 0.0:
        return 90.0, None
    c = float(a.dot(b)) / (na * nb)
    if abs(c) < 0.9:
        return math.degrees(math.acos(abs(c))), None
    ah = a / na
    if bh is None:
        bh = b / nb
    # For c < 0 the chord is to -bh, and ah - (-bh) is ah + bh exactly.
    chord = _norm(ah - bh if c >= 0 else ah + bh)
    return math.degrees(2.0 * math.asin(min(chord / 2.0, 1.0))), ah


def angle_degrees(u, v) -> float:
    """Angle between the lines spanned by u and v, in [0, 90] degrees.

    arccos of the absolute inner product of the normalized vectors, so it
    is invariant to sign flips.  For nearly parallel vectors arccos cannot
    resolve below ~1e-6 degrees in double precision, so that regime is
    evaluated through the chord length instead (2*arcsin(|a - b|/2)),
    which is accurate down to ~1e-13 degrees.  If either argument is
    all-zero the angle is 90 by convention; a non-finite norm is a NumericError.
    """
    a, na = _normed(u, "u")
    b, nb = _normed(v, "v")
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch {a.shape} vs {b.shape}")
    return _angle(a, b, na, nb)[0]


def _support_mask(support, d: int, name: str) -> np.ndarray:
    """Boolean d-mask of the 1-d integer indices ``support``; a boolean mask is rejected."""
    idx = _vector(support, name, dtype=None)
    if idx.size == 0:
        raise DomainError(f"{name} must be non-empty")
    if idx.dtype.kind not in "iu":
        raise DomainError(f"{name} must hold integer indices, got dtype {idx.dtype}")
    if idx.min() < 0 or idx.max() >= d:
        raise DomainError(f"{name} indices outside [0, d)")
    mask = np.zeros(d, dtype=bool)
    mask[idx] = True
    return mask


def _normed(v, name: str) -> tuple[np.ndarray, float]:
    """``_vector(v, name)`` and its norm; NumericError unless the norm is finite."""
    a = _vector(v, name)
    norm = _norm(a)
    if not math.isfinite(norm):
        raise NumericError(f"{name} must have a finite norm, got {norm}")
    return a, norm


def _support_counts(e: np.ndarray, mask: np.ndarray, k: int) -> tuple[float, float, int]:
    """Type I, Type II and the non-zero count of ``e`` against a truth d-mask of size k."""
    # Non-zeros inside the truth; the rest of the non-zeros lie outside it.
    inside = int(np.count_nonzero(e[mask]))
    nnz = int(np.count_nonzero(e))
    d = e.shape[0]
    type1 = (k - inside) / k
    type2 = (nnz - inside) / (d - k) if d > k else 0.0
    return type1, type2, nnz


def support_errors(estimate, truth_support) -> tuple[float, float]:
    """Support-recovery errors of an estimate against the true support.

    Type I is the fraction of true non-zero positions estimated as exactly
    zero; Type II is the fraction of true zero positions estimated as
    non-zero (0 when the truth has no zero positions).  ``truth_support``
    holds integer indices; a boolean mask is rejected.
    """
    e, _ = _normed(estimate, "estimate")
    mask = _support_mask(truth_support, e.shape[0], "truth support")
    type1, type2, _ = _support_counts(e, mask, int(np.count_nonzero(mask)))
    return type1, type2


@dataclass(frozen=True)
class _Truth:
    """What every metric row of one sample shares, checked and derived once.

    ``of(u1, truth_support)`` holds u1 as a float array, ||u1||, the truth
    support's d-mask and its size.
    """

    u1: np.ndarray
    u1_norm: float
    mask: np.ndarray
    k: int

    @classmethod
    def of(cls, u1, truth_support) -> _Truth:
        u, norm = _normed(u1, "u1")
        mask = _support_mask(truth_support, u.shape[0], "truth support")
        return cls(u, norm, mask, int(np.count_nonzero(mask)))


@dataclass(frozen=True)
class MetricRow:
    """Per-estimate metrics at one thresholding parameter."""

    angle_deg: float
    type1: float
    type2: float
    df: int


def evaluate_estimate(estimate, u1, truth_support) -> MetricRow:
    """Bundle angle + support errors + sparsity for one estimate.

    ``truth_support`` holds integer indices.  A caller that scores many
    estimates of one sample may pass ``_Truth.of(u1, truth_support)`` in
    its place, and then the u1 it holds is used.
    """
    e, norm = _normed(estimate, "estimate")
    truth = truth_support if isinstance(truth_support, _Truth) else _Truth.of(u1, truth_support)
    if e.shape != truth.u1.shape:
        raise DimensionError(f"shape mismatch {e.shape} vs {truth.u1.shape}")
    t1, t2, df = _support_counts(e, truth.mask, truth.k)
    angle = _angle(e, truth.u1, norm, truth.u1_norm)[0]
    return MetricRow(angle_deg=angle, type1=t1, type2=t2, df=df)


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
        nd, sigma2 = self.nd, self.sigma2
        # sigma2 = 0 is a perfect rank-one fit: the residual scale is empty, keep the df term.
        degenerate = not sigma2 > 0.0
        out = []
        for lam, rss, df in zip(self.lambdas.tolist(), self.rss.tolist(), self.dfs.tolist()):
            df_term = math.log(nd) / nd * df
            rss_term = 0.0 if degenerate else rss / (nd * sigma2)
            out.append(BicValue(lam, rss_term, df_term, rss_term + df_term, df, sigma2, degenerate))
        return tuple(out)


def frobenius_sq(x) -> float:
    """||X||_F^2, the sum of squares BIC's residuals are taken from; NumericError unless finite."""
    xm = _data_matrix(x)
    fro2 = float(np.einsum("ij,ij->", xm, xm))
    if not math.isfinite(fro2):
        raise NumericError(f"||X||_F^2 must be finite, got {fro2}")
    return fro2


def _checked_grid(grid) -> np.ndarray:
    """``grid`` as a float array; it must be non-empty, 1-d, finite, ascending and >= 0."""
    g = _array(grid, "lambda grid")
    if g.ndim != 1 or g.size == 0:
        raise DomainError("lambda grid must be a non-empty 1-d array")
    # A NaN fails every comparison, so this rejects it wherever it sits.
    if not ((np.diff(g) >= 0).all() and 0.0 <= g[0] and g[-1] < math.inf):
        raise DomainError("lambda grid must be finite, non-negative and ascending")
    return g


def select_lambda_bic(x, v1, grid, penalty: PenaltySpec | None = None) -> LambdaSelection:
    """Pick the grid lambda minimizing BIC; ties go to the larger lambda.

    Candidates are the componentwise thresholds of u_ols = X v1 under the
    penalty family (hard by default), scored in closed form from one sort
    of |u_ols|.  ``rspca`` checks its grid once per fit and scores each
    step through the same closed form.
    """
    g = _checked_grid(grid)
    xm = _data_matrix(x)
    v = _vector(v1, "v1")
    n = xm.shape[1]
    if v.shape != (n,):
        raise DimensionError(f"v1 has shape {v.shape}, expected ({n},)")
    # A NaN norm fails the comparison, so it is rejected too.
    if not abs(_norm(v) - 1.0) <= 1e-8:
        raise DomainError("v1 must be unit-norm")
    fam = penalty if penalty is not None else PenaltySpec.hard(0.0)
    lam, total, sigma2, totals, dfs, rss = _bic_selection(xm @ v, frobenius_sq(xm), n, g, fam)
    return LambdaSelection(lam, total, sigma2, g, totals, dfs, rss, n * xm.shape[0])


def _bic_selection(xv: np.ndarray, fro2: float, n: int, g: np.ndarray, fam: PenaltySpec
                   ) -> tuple[float, float, float, np.ndarray, np.ndarray, np.ndarray]:
    """BIC over the checked grid ``g`` from u_ols = ``xv`` and ||X||_F^2 = ``fro2``.

    Returns lambda*, its total and sigma^2, then the totals, dfs and rss on ``g``.
    """
    d = xv.shape[0]
    nd = n * d
    rss_ols = max(fro2 - float(xv @ xv), 0.0)
    sigma2 = rss_ols / (nd - d) if nd > d else 0.0
    au = np.sort(np.abs(xv))
    sq = np.concatenate(([0.0], np.cumsum(au * au)))
    k = np.searchsorted(au, g, side="right")  # entries thresholded to zero
    dfs = d - k
    excess = sq[k]
    if fam.family != "hard":
        # Where every |u_i| <= lam (k == d) each family zeroes every entry, so its excess
        # is hard's sq[d]; the terms below read 0 * inf there once lam is too large to square.
        with np.errstate(over="ignore", invalid="ignore"):
            if fam.family == "soft":
                excess = excess + dfs * (g * g)
            else:
                a = fam.scad_a
                ab = np.concatenate(([0.0], np.cumsum(au)))
                k2 = np.searchsorted(au, 2.0 * g, side="right")
                al = a * g
                k3 = np.searchsorted(au, al, side="right")
                blend = (k3 - k2) * (al * al) - 2.0 * al * (ab[k3] - ab[k2]) + (sq[k3] - sq[k2])
                band = blend / ((a - 2.0) ** 2 if a < 1e154 else math.nan)
                lost = ~np.isfinite(band)
                if lost.any():
                    # a lam or a - 2 is too large to square.  Each term (a lam - |u_i|)^2 / (a - 2)^2
                    # is (r - s |u_i|)^2 with r = lam a / (a - 2) and s = 1 / (a - 2),
                    # which square no large a.
                    j2, j3 = k2[lost], k3[lost]
                    r, s = g[lost] * (a / (a - 2.0)), 1.0 / (a - 2.0)
                    band[lost] = ((j3 - j2) * (r * r) - 2.0 * r * s * (ab[j3] - ab[j2])
                                  + s * s * (sq[j3] - sq[j2]))
                excess = excess + (k2 - k) * (g * g) + band
            excess = np.where(k == d, sq[d], excess)
    rss = rss_ols + excess
    df_terms = math.log(nd) / nd * dfs
    totals = rss / (nd * sigma2) + df_terms if sigma2 > 0.0 else df_terms
    best = g.size - 1 - int(np.argmin(totals[::-1]))
    return float(g[best]), float(totals[best]), sigma2, totals, dfs, rss


def _check_grid_settings(lambda_min: float, lambda_max: float | None, points: int) -> None:
    """The lambda grid's settings rules; a lambda_max of None is left to the data."""
    _check_integers(lambda_points=points)
    if points < 1:
        raise DomainError(f"lambda_points must be >= 1, got {points}")
    _check_finite(lambda_min=lambda_min, lambda_max=lambda_max)
    if not lambda_min > 0:
        raise DomainError(f"lambda_min must be > 0, got {lambda_min}")
    if lambda_max is not None and not lambda_max > lambda_min:
        raise DomainError(f"lambda_max must exceed lambda_min, got {lambda_max} and {lambda_min}")


def default_lambda_grid(
    u_tilde,
    lambda_min: float = DEFAULT_LAMBDA_MIN,
    lambda_max: float | None = None,
    points: int = DEFAULT_LAMBDA_POINTS,
) -> np.ndarray:
    """lambda = 0 plus ``points`` log-spaced values from lambda_min to lambda_max,
    which defaults to 1.5 * max|u_tilde|, or lambda_min if larger."""
    _check_grid_settings(lambda_min, lambda_max, points)
    ut = _vector(u_tilde, "u_tilde")
    if ut.size == 0:
        raise DomainError("u_tilde must be non-empty")
    hi = lambda_max if lambda_max is not None else 1.5 * float(np.max(np.abs(ut)))
    if not hi < math.inf:
        raise DomainError(f"1.5 max |u_tilde| must be finite, got {hi}")
    return np.concatenate([[0.0], np.geomspace(lambda_min, max(hi, lambda_min), points)])
