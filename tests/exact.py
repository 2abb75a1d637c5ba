"""Closed-form references that the tests check the program against.

At J = 2 and m = 1 the gap rule is the two-sided exit at +-c of
D = lambda_1 - lambda_2, the LLR walk of a swap of the two streams.  For
gaussian streams whose means differ by theta, D steps by N(Delta^2 / 2,
Delta^2) with Delta^2 = 2 theta^2, and Siegmund's second-order constants
of that walk apply (Siegmund, *Sequential Analysis*, 1985, ch. VIII;
Woodroofe, *Nonlinear Renewal Theory in Sequential Analysis*, 1982).  As
c grows:

* the wrong exit has probability about ``nu(Delta) * exp(-c)``;
* E[T] is about ``(c + rho(Delta)) / theta**2``, rho the mean overshoot of
  the boundary in LLR units.

Both are series over n >= 1 of terms in x_n = Delta sqrt(n) / 2, whose
tails fall like Phi(-x_n); at theta = 0.5, ``TERMS`` = 2,000 terms give
the sums of 200,000 to double precision.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

TERMS = 2_000


def _series(delta: float, terms: int) -> tuple[np.ndarray, np.ndarray]:
    """n = 1..terms and x_n = Delta sqrt(n) / 2."""
    n = np.arange(1, terms + 1, dtype=float)
    return n, delta * np.sqrt(n) / 2.0


def nu(delta: float, terms: int = TERMS) -> float:
    """nu(Delta) = 2 Delta^-2 exp(-2 sum_n n^-1 Phi(-x_n))."""
    n, x = _series(delta, terms)
    return float(2.0 / delta**2 * np.exp(-2.0 * np.sum(ndtr(-x) / n)))


def rho(delta: float, terms: int = TERMS) -> float:
    """rho(Delta) = 1 + Delta^2 / 4
    - Delta sum_n n^-1/2 [phi(x_n) - x_n Phi(-x_n)]."""
    n, x = _series(delta, terms)
    phi = np.exp(-(x**2) / 2.0) / np.sqrt(2.0 * np.pi)
    total = np.sum((phi - x * ndtr(-x)) / np.sqrt(n))
    return float(1.0 + delta**2 / 4.0 - delta * total)
