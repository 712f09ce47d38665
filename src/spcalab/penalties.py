"""Sparsity penalties and their scalar thresholding rules.

Each penalty family comes with the closed-form minimizer h of the scalar
surrogate  0.5*(x - u)**2 + p_lambda(|u|):

* hard:  h(x) = x * 1{|x| > lam}
* soft:  h(x) = sign(x) * max(|x| - lam, 0)
* scad:  soft for |x| <= 2*lam, a linear blend up to a*lam, identity beyond
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .exceptions import DomainError, _array, _check_finite, _check_real

FAMILIES = ("soft", "hard", "scad")

DEFAULT_SCAD_A = 3.7


@dataclass(frozen=True)
class PenaltySpec:
    """Penalty family plus thresholding parameter lambda (and SCAD shape a)."""

    family: str
    lam: float
    scad_a: float = DEFAULT_SCAD_A

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"unknown penalty family {self.family!r}; expected one of {FAMILIES}")
        _check_real(lam=self.lam, scad_a=self.scad_a)
        if not self.lam >= 0.0:
            raise DomainError(f"lambda must be >= 0, got {self.lam}")
        _check_finite(scad_a=self.scad_a)
        if not self.scad_a > 2.0:
            raise DomainError(f"SCAD shape a must be > 2, got {self.scad_a}")

    @classmethod
    def soft(cls, lam: float) -> "PenaltySpec":
        return cls("soft", lam)

    @classmethod
    def hard(cls, lam: float) -> "PenaltySpec":
        return cls("hard", lam)

    @classmethod
    def scad(cls, lam: float, a: float = DEFAULT_SCAD_A) -> "PenaltySpec":
        return cls("scad", lam, a)

    def with_lambda(self, lam: float) -> "PenaltySpec":
        return replace(self, lam=lam)


def threshold(x, penalty: PenaltySpec) -> np.ndarray:
    """Apply the penalty's thresholding rule componentwise."""
    return _threshold(_array(x, "x"), penalty)[0]


def _threshold(x: np.ndarray, penalty: PenaltySpec) -> tuple[np.ndarray, np.ndarray]:
    """``threshold`` of a float array and its support, the mask of its non-zeros."""
    lam = penalty.lam
    ax = np.abs(x)
    # For finite x every family is non-zero exactly where |x| > lam: 0 * x and
    # sign(x) * 0.0 are zeros, |x| - lam is exact in sign, and SCAD's blend
    # exceeds lam by more than its two roundings, (a - 1)|x| and a lam, can take.
    keep = ax > lam
    if penalty.family == "hard":
        return x * keep, keep
    soft = np.sign(x) * np.maximum(ax - lam, 0.0)
    if penalty.family == "soft":
        return soft, keep
    a = penalty.scad_a
    with np.errstate(invalid="ignore", over="ignore"):
        mid = ((a - 1.0) * x - np.sign(x) * a * lam) / (a - 2.0)
        lost = ~np.isfinite(mid)
        if lost.any():
            # (a - 1) x or a lam overflowed.  The same blend as |x| - lam + (|x| - 2 lam) / (a - 2)
            # has no term beyond |x| on its band 2 lam < |x| <= a lam, and is at least lam there.
            m = ax[lost]
            mid[lost] = np.sign(x[lost]) * ((m - lam) + (m - 2.0 * lam) / (a - 2.0))
    return np.where(ax <= 2.0 * lam, soft, np.where(ax <= a * lam, mid, x)), keep
