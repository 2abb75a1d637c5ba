"""One-state reference forms of the library's vectorized code.

The library walks a path block by block (``rules.Walk``), scans blocks of
cumulative LLR rows (``scan_path``), maps observation blocks to increments
(``StreamProfile.increments``) and turns observation sums into p-values
(``engine.fixed_sample_pvalues``).  The functions here state the same
things one path, one state, one stream or one observation at a time, the
way the definitions read, and the tests check the library against them.
"""

import math

import numpy as np
from scipy.special import ndtr

from seqgap import (
    BERNOULLI,
    GAUSSIAN_MEAN,
    GapIntersectionRule,
    GapRule,
    IntersectionRule,
    OrderView,
    order_view,
)
from seqgap.rules import (
    STOP_GAP,
    STOP_HORIZON,
    STOP_INTERSECTION,
    STOP_TAU1,
    STOP_TAU2,
    STOP_TAU3,
)


def one_shot_path(profile, truth, horizon: int, rng) -> np.ndarray:
    """A trial's cumulative-LLR path as one cumulative sum over all its rows."""
    x = profile.sample_block(truth, horizon, rng)
    return np.cumsum(profile.increments(x), axis=0)


def gap_at(view: OrderView, k: int) -> float:
    """Gap between the k-th and (k+1)-th largest statistics.

    Positions 0 and J sit against the sentinels +inf above the largest and
    -inf below the smallest value, so both boundary gaps are +inf.
    """
    if not 0 <= k <= view.j:
        raise ValueError(f"k must be in 0..{view.j}, got {k}")
    if k == 0 or k == view.j:
        return math.inf
    return float(view.sorted[k - 1] - view.sorted[k])


def gap_should_stop(rule, view: OrderView) -> bool:
    """The gap rule's stopping condition at one state."""
    rule._check_j(view.j)
    return gap_at(view, rule.num_signals) >= rule.threshold


def gi_should_stop(rule, view: OrderView) -> str | None:
    """Name of the first gap-intersection sub-event that fires at this
    state, if any.

    Order statistics at positions 0 and J+1 act as +inf / -inf sentinels,
    so with min_signals = 0 the accept-side event reduces to "every
    statistic is at or below the lower barrier", and with max_signals = J
    the reject-side event reduces to "every statistic is at or above the
    upper barrier".
    """
    rule._check_j(view.j)
    lo, hi = rule.min_signals, rule.max_signals
    lam_below_lo = float(view.sorted[lo]) if lo < view.j else -math.inf
    if lam_below_lo <= -rule.accept_barrier and gap_at(view, lo) >= rule.accept_gap:
        return STOP_TAU1
    outside = np.all(
        (view.sorted <= -rule.accept_barrier) | (view.sorted >= rule.reject_barrier)
    )
    if outside and lo <= view.positive_count <= hi:
        return STOP_TAU2
    lam_at_hi = float(view.sorted[hi - 1]) if hi >= 1 else math.inf
    if lam_at_hi >= rule.reject_barrier and gap_at(view, hi) >= rule.reject_gap:
        return STOP_TAU3
    return None


def intersection_should_stop(rule, view: OrderView) -> bool:
    """The intersection rule's corridor condition at one state."""
    return bool(
        np.all(
            (view.sorted <= -rule.accept_barrier) | (view.sorted >= rule.reject_barrier)
        )
    )


def stop_tag(rule, view: OrderView) -> str | None:
    """The event a sequential rule's one-state condition names at this
    state, or None if the rule does not stop there."""
    if isinstance(rule, GapRule):
        return STOP_GAP if gap_should_stop(rule, view) else None
    if isinstance(rule, GapIntersectionRule):
        return gi_should_stop(rule, view)
    assert isinstance(rule, IntersectionRule)
    return STOP_INTERSECTION if intersection_should_stop(rule, view) else None


def stepwise_run(rule, path: np.ndarray) -> tuple[int, frozenset[int], str]:
    """Stopping time, rejected labels and stop tag of a sequential rule on
    a whole cumulative-LLR path, scanned one row at a time; a path that
    ends without a stop is decided at its last row and tagged "horizon"."""
    for t, row in enumerate(path):
        view = order_view(row)
        tag = stop_tag(rule, view)
        if tag is not None:
            break
    else:
        tag = STOP_HORIZON
    decision = rule.decide(view, t + 1, tag)
    return decision.stopping_time, decision.rejected, decision.stopped_by


def p_value(total: float, n: int, model) -> float:
    """One-sided p-value for a stream's observation sum after n steps.

    Defined for the gaussian-mean family only: the z-score of ``total``
    under the null mean is tested against the direction of the alternative.
    """
    if model.family != GAUSSIAN_MEAN:
        raise ValueError(
            f"p-values are only available for the {GAUSSIAN_MEAN} family, "
            f"got {model.family}"
        )
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    z = (float(total) - n * model.null) / math.sqrt(n)
    if model.alt > model.null:
        return float(ndtr(-z))
    return float(ndtr(z))


def llr_increment(model, x: float) -> float:
    """One-observation log-likelihood ratio log f_alt(x) / f_null(x)."""
    if model.family == BERNOULLI and x not in (0.0, 1.0):
        raise ValueError(f"bernoulli observation must be 0 or 1, got {x!r}")
    if not math.isfinite(x):
        raise ValueError(f"observation must be finite, got {x!r}")
    return model.llr_slope * float(x) + model.llr_offset
