"""The paper's threshold range and counterexample law, stated once.

The consistency theorem's thresholds lie in ``[log(d)**delta * d**(theta/2),
d**(gamma/2)]`` with delta > 1/2 and theta < gamma < alpha - eta.  Each
counterexample tail coordinate is non-zero with probability
``2 * d**-((alpha+1)/2)``.  The paper's abstract states neither, and the
lab assumes more than it does:

* the spiked model has theta = 0 (tail eigenvalues 1) and eta = beta
  (non-zero loadings ``m**-0.5 ~ d**(-beta/2)``), as ``pair_lambda_bounds`` fixes;
* the range formula applies unchanged at alpha > 1, where the abstract
  says only that sparse PCA stays consistent;
* gamma defaults to the midpoint of its admissible interval;
* the asymptotic range is read at a finite d, where it can be empty;
* the counterexample law needs 0 < alpha < 1, and its tail coordinates'
  two-point mass at ``+-d**((alpha+1)/4)`` has second moment 2, not 1.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .exceptions import DomainError


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
    """Evaluate the consistency threshold range at dimension d; an end that overflows is inf."""
    _check_d_delta(d, delta)
    if not all(map(math.isfinite, (theta, gamma, delta))):
        raise DomainError(f"theta, gamma and delta must be finite, got {theta}, {gamma}, {delta}")
    if not gamma > theta:
        raise DomainError(f"gamma must exceed theta, got gamma={gamma} theta={theta}")
    factors = (_power(math.log(d), delta), _power(d, theta / 2.0))
    if all(sys.float_info.min <= f < math.inf for f in factors):
        lower = factors[0] * factors[1]
    else:
        # A factor overflowed or underflowed: take the product in log space.
        lower = _power(math.e, delta * math.log(math.log(d)) + theta / 2.0 * math.log(d))
    return LambdaBounds(lower=lower, upper=_power(d, gamma / 2.0))


def _check_d_delta(d: int, delta: float) -> None:
    """The range needs log(d) > 0 and delta > 1/2, whether or not gamma is admissible."""
    if d < 2:
        raise DomainError(f"d must be >= 2, got {d}")
    if not delta > 0.5:
        raise DomainError(f"delta must be > 1/2, got {delta}")


def _power(base: float, exponent: float) -> float:
    """``base ** exponent``, or inf where that overflows a float."""
    try:
        return pow(base, exponent)
    except OverflowError:
        return math.inf


def gamma_is_valid(gamma: float, theta: float, alpha: float, eta: float) -> bool:
    """Admissibility of the upper-bound exponent: theta < gamma < alpha - eta."""
    return theta < gamma < alpha - eta


def default_gamma(theta: float, alpha: float, eta: float) -> float | None:
    """Midpoint of the admissible gamma interval, or None when it is empty."""
    if alpha - eta <= theta:
        return None
    return 0.5 * (theta + (alpha - eta))


def pair_lambda_bounds(
    d: int, alpha: float, beta: float, delta: float, gamma: float | None
) -> LambdaBounds | None:
    """The threshold range of the spiked pair (alpha, beta) at dimension d.

    theta = 0 and eta = beta; gamma None takes ``default_gamma``.  None
    when no gamma is admissible (alpha <= beta); an empty range when gamma
    lies outside (theta, alpha - eta).  d and delta are checked either way.
    """
    _check_d_delta(d, delta)
    theta, eta = 0.0, beta
    midpoint = default_gamma(theta, alpha, eta)
    if midpoint is None:
        return None
    gamma = midpoint if gamma is None else gamma
    if not gamma_is_valid(gamma, theta, alpha, eta):
        return LambdaBounds(lower=math.inf, upper=0.0)
    return theorem_lambda_bounds(d, theta, gamma, delta)


def counterexample_tail_probability(d: int, alpha: float) -> float:
    """d**(-(alpha+1)/2), the chance of each sign of a counterexample tail coordinate.

    Raises DomainError when (d, alpha) admits no such law, including when
    the tail magnitude does not exceed the spike in floating point.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if d < 2:
        raise DomainError(f"d must be >= 2, got {d}")
    p = d ** (-(alpha + 1.0) / 2.0)
    if 2.0 * p > 1.0:
        raise DomainError(f"tail probabilities 2*d**-((alpha+1)/2) = {2 * p:.4f} exceed 1")
    # (alpha+1)/4 > alpha/2 for every alpha < 1, but near alpha = 1 the two
    # powers can round to the same float; every draw would then tie, and a
    # tie goes to the spike.
    if not d ** ((alpha + 1.0) / 4.0) > d ** (alpha / 2.0):
        raise DomainError(
            f"tail magnitude d**((alpha+1)/4) does not exceed the spike d**(alpha/2)"
            f" in floating point at d={d}, alpha={alpha!r}"
        )
    return p


def failure_probability(d: int, alpha: float) -> float:
    """Probability that the spike coordinate dominates, (1 - 2 d**-((a+1)/2))**(d-1).

    This is the chance that every tail coordinate of one draw from the
    counterexample model is zero, which is the only way the first
    coordinate can carry the largest |entry|.  It decays to 0 as d grows.
    Raises DomainError where ``counterexample_tail_probability`` does.
    """
    p = counterexample_tail_probability(d, alpha)
    return float((1.0 - 2.0 * p) ** (d - 1))
