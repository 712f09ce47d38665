"""Independent brute-force oracles used by the test suite.

These deliberately avoid the code paths they check: the eigenvalue oracle
goes through the characteristic polynomial (Faddeev-LeVerrier) and interval
bisection, the thresholding oracle minimizes the penalized scalar loss
by staged grid refinement, and the counterexample oracle scores each draw
through the full dual PCA estimator.
"""

from __future__ import annotations

import numpy as np

from spcalab.estimators import pca_first
from spcalab.model import sample_counterexample
from spcalab.penalties import PenaltySpec, penalty_value


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
