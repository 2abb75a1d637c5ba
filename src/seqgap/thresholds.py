"""Closed-form thresholds and asymptotic benchmarks.

The formulas give thresholds under which the sequential rules provably
control both error-metric sides at the budgeted levels under independence
across streams: the budget levels are first inflated by the metric's
bound constant C1 (so controlling the family-wise rates at level/C1
controls the metric itself), then log-transformed with a multiplicity
correction that depends on the rule and its bracket.  The logarithm of
level/C1 is taken as log(level) - log(C1), so a level near the smallest
float does not underflow to 0 when divided.

``kappa_gap`` / ``kappa_gi`` compute the first-order lower benchmark for
the expected stopping time of *any* procedure controlling the budget: the
rules' expected stopping times divided by the benchmark converge to 1 as
the budget shrinks, which the engine's sweep diagnostic measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .models import check_probability, store_checked


@dataclass(frozen=True)
class ErrorBudget:
    """Nominal levels for the two error sides."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        store_checked(self, check_probability, "alpha", "beta")


@dataclass(frozen=True)
class GiThresholds:
    """The four thresholds of the bracketed rule."""

    accept_barrier: float
    reject_barrier: float
    accept_gap: float
    reject_gap: float


def gap_threshold(
    budget: ErrorBudget, num_signals: int, j: int, c1: float = 1.0
) -> float:
    """Gap-rule threshold controlling both error sides at the budget.

    ``c1`` is the controlled metric's bound constant (1 for the
    family-wise rates and the discovery/non-discovery proportions).
    """
    if not 1 <= num_signals <= j - 1:
        raise ValueError(f"num_signals must be in 1..{j - 1}, got {num_signals}")
    if not c1 > 0:
        raise ValueError(f"c1 must be positive, got {c1}")
    log_level = math.log(min(budget.alpha, budget.beta)) - math.log(c1)
    return abs(log_level) + math.log(num_signals * (j - num_signals))


def gi_thresholds(
    budget: ErrorBudget,
    j: int,
    min_signals: int,
    max_signals: int,
    c1: float = 1.0,
) -> GiThresholds:
    """Bracketed-rule thresholds controlling both error sides at the budget."""
    if not 0 <= min_signals < max_signals <= j:
        raise ValueError(
            f"need 0 <= min_signals < max_signals <= {j}, got "
            f"{min_signals}..{max_signals}"
        )
    if not c1 > 0:
        raise ValueError(f"c1 must be positive, got {c1}")
    log_a = abs(math.log(budget.beta) - math.log(c1))
    log_b = abs(math.log(budget.alpha) - math.log(c1))
    return GiThresholds(
        accept_barrier=log_a + math.log(j),
        reject_barrier=log_b + math.log(j),
        accept_gap=log_b + math.log((j - min_signals) * j),
        reject_gap=log_a + math.log(max_signals * j),
    )


def kappa_gap(budget: ErrorBudget, eta0: float, eta1: float) -> float:
    """First-order expected-stopping-time benchmark for the gap rule.

    ``eta0``/``eta1`` are the worst-case information numbers of the noise
    and signal sides; both sides are nonempty for the gap rule, so the sum
    must be positive and finite.
    """
    total = eta0 + eta1
    if not (total > 0 and math.isfinite(total)):
        raise ValueError(f"eta0 + eta1 must be positive and finite, got {total}")
    return abs(math.log(min(budget.alpha, budget.beta))) / total


def kappa_gi(
    budget: ErrorBudget,
    eta0: float,
    eta1: float,
    signal_count: int,
    min_signals: int,
    max_signals: int,
) -> float:
    """First-order benchmark for the bracketed rule.

    The shape depends on where the true signal count sits in the bracket:
    at the lower edge the accept side dominates, at the upper edge the
    reject side, and strictly inside both sides bind separately.  An
    infinite eta (empty side) simply drops its term.
    """
    if not 0 <= min_signals < max_signals:
        raise ValueError(
            f"need 0 <= min_signals < max_signals, got {min_signals}..{max_signals}"
        )
    if not min_signals <= signal_count <= max_signals:
        raise ValueError(
            f"signal_count must lie in the bracket {min_signals}..{max_signals}, "
            f"got {signal_count}"
        )
    la = abs(math.log(budget.alpha))
    lb = abs(math.log(budget.beta))
    if signal_count == min_signals:
        return max(lb / eta0, la / (eta0 + eta1))
    if signal_count == max_signals:
        return max(la / eta1, lb / (eta0 + eta1))
    return max(lb / eta0, la / eta1)
