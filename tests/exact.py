"""Closed-form references that the tests check the program against.

The fixed-sample baselines on J gaussian streams, m of them signals, see
each stream's z-score only: a null's is N(0, 1), a signal's N(shift, 1)
with shift = sqrt(n) theta, and the one-sided p-value is Phi(-z).
``bh_rates`` gives step-up BH's FDR and FNR by a downward recursion over
its thresholds, and ``top_m_false_rejections`` gives top-m's E[V] by one
quadrature.

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
from scipy import integrate
from scipy.special import ndtr, ndtri
from scipy.stats import binom

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


def _signal_cdf(t: float, shift: float) -> float:
    """P(a signal's p-value <= t): its z-score is at least Phi^-1(1 - t)."""
    return float(ndtr(shift + ndtri(t))) if t > 0.0 else 0.0


def _thinning(count: int, keep: float) -> np.ndarray:
    """(count + 1, count + 1) matrix of Binomial(a, keep) at a', row a."""
    a = np.arange(count + 1)
    return binom.pmf(a[None, :], a[:, None], keep)


def bh_rates(j: int, m: int, shift: float, level: float) -> tuple[float, float]:
    """FDR and FNR of step-up BH at ``level`` on J independent p-values,
    the first m of them signals with z-scores shifted by ``shift``.

    With N(t) the p-values at or below t and t_i = i level / J, BH rejects
    R = k streams exactly when N(t_k) = k and N(t_i) < i for every i > k.
    The recursion holds the chance of each (nulls, signals) count at or
    below t_i on the event N(t_l) < l for every l > i.  Counts summing to
    i end there with R = i; the rest thin to t_(i-1), each null staying
    below with chance t_(i-1) / t_i and each signal with chance
    G(t_(i-1)) / G(t_i), G a signal's p-value CDF.  What is left below
    t_1 rejects nothing.
    """
    nulls = j - m
    t = [i * level / j for i in range(j + 1)]
    g = [_signal_cdf(x, shift) for x in t]
    state = np.outer(
        binom.pmf(np.arange(nulls + 1), nulls, t[j]),
        binom.pmf(np.arange(m + 1), m, g[j]),
    )
    v, b = np.meshgrid(np.arange(nulls + 1), np.arange(m + 1), indexing="ij")
    fdr = fnr = 0.0
    for i in range(j, 0, -1):
        stop = v + b == i
        fdr += float(np.sum(state[stop] * v[stop])) / i
        fnr += float(np.sum(state[stop] * (m - b[stop]))) / max(j - i, 1)
        state = np.where(v + b < i, state, 0.0)
        keep_signal = g[i - 1] / g[i] if g[i] > 0.0 else 0.0
        state = _thinning(nulls, t[i - 1] / t[i]).T @ state @ _thinning(m, keep_signal)
    fnr += float(state.sum()) * m / j
    return fdr, fnr


def top_m_false_rejections(j: int, m: int, shift: float) -> float:
    """E[V] of the top-m rule on J independent z-scores, m of them signals
    shifted by ``shift``: R = m, so FDR = E[V] / m and FNR = E[V] / (J - m).

    A null at z = x is among the m largest when fewer than m of the others
    exceed x: the other J - m - 1 nulls each with chance Phi(-x) and the m
    signals each with chance Phi(shift - x), two binomials convolved.  So
    E[V] = (J - m) int phi(x) P(fewer than m others above x) dx.
    """
    others = np.arange(j - m)

    def integrand(x: float) -> float:
        null_counts = binom.pmf(others, j - m - 1, ndtr(-x))
        signal_counts = binom.pmf(np.arange(m + 1), m, ndtr(shift - x))
        fewer = np.convolve(null_counts, signal_counts)[:m].sum()
        return float(np.exp(-x * x / 2.0) / np.sqrt(2.0 * np.pi) * fewer)

    # The integrand lives where phi does and turns near the signals' mean.
    value, _ = integrate.quad(
        integrand, -12.0, 12.0 + shift, points=[0.0, shift],
        limit=200, epsabs=1e-13, epsrel=1e-11,
    )
    return (j - m) * value
