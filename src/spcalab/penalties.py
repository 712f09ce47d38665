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

from .exceptions import DomainError

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
        if self.lam < 0.0:
            raise DomainError(f"lambda must be >= 0, got {self.lam}")
        if self.scad_a <= 2.0:
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
    x = np.asarray(x, dtype=float)
    lam = penalty.lam
    if penalty.family == "hard":
        return x * (np.abs(x) > lam)
    if penalty.family == "soft":
        return np.sign(x) * np.maximum(np.abs(x) - lam, 0.0)
    a = penalty.scad_a
    ax = np.abs(x)
    soft = np.sign(x) * np.maximum(ax - lam, 0.0)
    with np.errstate(invalid="ignore"):
        mid = ((a - 1.0) * x - np.sign(x) * a * lam) / (a - 2.0)
    return np.where(ax <= 2.0 * lam, soft, np.where(ax <= a * lam, mid, x))


def threshold_scalar(x: float, penalty: PenaltySpec) -> float:
    """Scalar form of ``threshold``."""
    return float(threshold(np.asarray(x, dtype=float), penalty))

