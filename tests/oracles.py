"""One-state reference forms of the library's vectorized code.

The library steps a path block by block (``rules.run_sequential``, on
the schedule of ``rules.next_block``: doubling blocks of at most 2**12
values, cut at the horizon), draws observation blocks in place
(``StreamProfile.sample_block``), scans blocks of cumulative LLR rows
(``scan_path``), maps observation blocks to increments
(``StreamProfile.increments``), runs fixed-sample trials a batch at a
time with one transform, one sum, one p-value pass and one decision per
batch (``engine._run_fixed``, ``engine.fixed_sample_pvalues``), decides
and counts with stacks of (J,) boolean masks over 0-based columns
(``decide``, ``bh_decide``, ``top_m_decide``, ``metrics.confusion``) and
aggregates columns of counts (``metrics.aggregate``).  The functions here
state the same things one path, one trial, one state, one stream, one
column family or one observation at a time, decisions as sets of 1-based
stream labels and counts as one trial's four integers, the way the
definitions read, and the tests check the library against them.
"""

import math
from typing import NamedTuple

import numpy as np
from scipy.special import ndtr, ndtri

from seqgap import (
    BERNOULLI,
    GAUSSIAN_MEAN,
    BhRule,
    ConditioningError,
    GapIntersectionRule,
    GapRule,
    IntersectionRule,
    MetricKind,
    trial_rng,
)
from seqgap.metrics import mean_se
from seqgap.rules import (
    STOP_FIXED,
    STOP_GAP,
    STOP_HORIZON,
    STOP_INTERSECTION,
    STOP_TAU1,
    STOP_TAU2,
    STOP_TAU3,
)


def labels(mask) -> frozenset[int]:
    """1-based stream labels of the True columns of a (J,) mask."""
    return frozenset(int(column) + 1 for column in np.flatnonzero(mask))


def outcome(decision) -> tuple[int, frozenset[int], str]:
    """Stopping time, rejected labels and stop tag of a ``Decision``, the
    form ``stepwise_run`` and ``fixed_trial`` return."""
    return decision.stopping_time, labels(decision.rejected), decision.stopped_by


def top_labels(lam, k: int) -> frozenset[int]:
    """Stream labels holding the k largest statistics of ``lam``, the
    lowest label first on ties."""
    if not 0 <= k <= len(lam):
        raise ValueError(f"k must be in 0..{len(lam)}, got {k}")
    order = sorted(range(1, len(lam) + 1), key=lambda label: -lam[label - 1])
    return frozenset(order[:k])


def decide(rule, lam) -> frozenset[int]:
    """Labels a sequential rule rejects when it stops at the state ``lam``:
    the top m, the top p' for p' the positive count clamped into the
    bracket, or every positive statistic."""
    positives = sum(1 for x in lam if x > 0.0)
    if isinstance(rule, GapRule):
        return top_labels(lam, rule.num_signals)
    if isinstance(rule, GapIntersectionRule):
        lo, hi = rule.min_signals, rule.max_signals
        return top_labels(lam, min(max(positives, lo), hi))
    assert isinstance(rule, IntersectionRule)
    return frozenset(label for label, x in enumerate(lam, 1) if x > 0.0)


def bh_decide(pvalues, level: float) -> frozenset[int]:
    """Step-up procedure: reject the k smallest p-values where k is the
    largest i with p_(i) <= i * level / J; ties go to the lower label."""
    p = np.asarray(pvalues, dtype=float)
    j = p.size
    order = np.argsort(p, kind="stable")
    passing = np.nonzero(p[order] <= level * np.arange(1, j + 1) / j)[0]
    k = int(passing[-1]) + 1 if passing.size else 0
    return frozenset(int(lbl) for lbl in order[:k] + 1)


def top_m_decide(pvalues, num_signals: int) -> frozenset[int]:
    """Labels of the ``num_signals`` smallest p-values, lower label first
    on ties."""
    order = np.argsort(np.asarray(pvalues, dtype=float), kind="stable")
    return frozenset(int(lbl) for lbl in order[:num_signals] + 1)


class Counts(NamedTuple):
    """One trial's confusion counts: false rejections, missed signals and
    rejections, out of j streams."""

    v: int
    w: int
    r: int
    j: int


def rows(counts) -> list[Counts]:
    """The library's count columns, one ``Counts`` per trial."""
    return [
        Counts(int(v), int(w), int(r), counts.j)
        for v, w, r in zip(counts.v, counts.w, counts.r)
    ]


def confusion(rejected: frozenset[int], truth: frozenset[int], j: int) -> Counts:
    """Confusion counts of rejected labels against the true signal labels."""
    streams = range(1, j + 1)
    for name, group in (("rejected", rejected), ("truth", truth)):
        bad = [lbl for lbl in group if lbl not in streams]
        if bad:
            raise ValueError(f"{name} labels outside 1..{j}: {sorted(bad)}")
    return Counts(
        v=len(rejected - truth),
        w=len(truth - rejected),
        r=len(rejected),
        j=j,
    )


def per_trial(kind: MetricKind, counts: Counts) -> float | None:
    """One trial's contribution to a metric, or None when undefined.

    FPR divides by the trial's signal count w + r - v, which must be
    positive.
    """
    kind = MetricKind(kind)
    v, w, r, j = counts
    if kind is MetricKind.FWE1:
        return float(v >= 1)
    if kind is MetricKind.FWE2:
        return float(w >= 1)
    if kind is MetricKind.FDR:
        return v / max(r, 1)
    if kind is MetricKind.FNR:
        return w / max(j - r, 1)
    if kind is MetricKind.PFDR:
        return None if r == 0 else v / r
    if kind is MetricKind.PFNR:
        return None if j - r == 0 else w / (j - r)
    if kind is MetricKind.PCER:
        return v / j
    if kind is MetricKind.FPR:
        if w + r - v < 1:
            raise ValueError("fpr needs at least one signal as its divisor")
        return v / (w + r - v)
    if kind is MetricKind.PFER:
        return float(v)
    return float(w)  # PFER2


def aggregate(kind: MetricKind, trials: list[Counts]):
    """A metric's estimate over trials, one ``per_trial`` contribution at a
    time in trial order, without the trials where it is undefined."""
    kind = MetricKind(kind)
    contributions = [per_trial(kind, t) for t in trials]
    if not contributions:
        raise ValueError("no trials to aggregate")
    kept = [x for x in contributions if x is not None]
    if not kept:
        raise ConditioningError(
            f"{kind.value} is undefined: its conditioning event occurred in no trial"
        )
    return mean_se(kept)


def sample_block(profile, signal, steps: int, rng) -> np.ndarray:
    """A (steps, J) observation block written column family by column
    family into a new array: each stream's inverse CDF of its column of
    clamped uniforms."""
    u = rng.random(size=(int(steps), profile.j))
    np.maximum(u, 2.0**-53, out=u)
    params = np.where(signal, profile.alt, profile.null)
    x = np.empty_like(u)
    cols = profile.gaussian_columns
    if cols.size:
        x[:, cols] = params[cols] + ndtri(u[:, cols])
    cols = profile.bernoulli_columns
    if cols.size:
        x[:, cols] = (u[:, cols] < params[cols]).astype(float)
    return x


def one_shot_path(profile, signal, horizon: int, rng) -> np.ndarray:
    """A trial's cumulative-LLR path as one cumulative sum over all its rows."""
    x = profile.sample_block(signal, horizon, rng)
    return np.cumsum(profile.increments(x), axis=0)


def _descending(lam) -> list[float]:
    """The statistics of ``lam`` from the largest down."""
    return sorted((float(x) for x in lam), reverse=True)


def _outside(rule, lam) -> bool:
    """Whether every statistic is outside (-accept_barrier, reject_barrier)."""
    a, b = rule.accept_barrier, rule.reject_barrier
    return all(x <= -a or x >= b for x in lam)


def gap_at(lam, k: int) -> float:
    """Gap between the k-th and (k+1)-th largest statistics of ``lam``.

    Positions 0 and J sit against the sentinels +inf above the largest and
    -inf below the smallest value, so both boundary gaps are +inf.
    """
    j = len(lam)
    if not 0 <= k <= j:
        raise ValueError(f"k must be in 0..{j}, got {k}")
    if k == 0 or k == j:
        return math.inf
    s = _descending(lam)
    return s[k - 1] - s[k]


def gap_should_stop(rule, lam) -> bool:
    """The gap rule's stopping condition at the state ``lam``."""
    rule.rejections(len(lam))  # raises if the rule does not fit J
    return gap_at(lam, rule.num_signals) >= rule.threshold


def gi_should_stop(rule, lam) -> str | None:
    """Name of the first gap-intersection sub-event that fires at the state
    ``lam``, if any.

    Order statistics at positions 0 and J+1 act as +inf / -inf sentinels,
    so with min_signals = 0 the accept-side event reduces to "every
    statistic is at or below the lower barrier", and with max_signals = J
    the reject-side event reduces to "every statistic is at or above the
    upper barrier".
    """
    j = len(lam)
    rule.rejections(j)  # raises if the rule does not fit J
    s = _descending(lam)
    lo, hi = rule.min_signals, rule.max_signals
    lam_below_lo = s[lo] if lo < j else -math.inf
    if lam_below_lo <= -rule.accept_barrier and gap_at(lam, lo) >= rule.accept_gap:
        return STOP_TAU1
    positives = sum(1 for x in lam if x > 0.0)
    if _outside(rule, lam) and lo <= positives <= hi:
        return STOP_TAU2
    lam_at_hi = s[hi - 1] if hi >= 1 else math.inf
    if lam_at_hi >= rule.reject_barrier and gap_at(lam, hi) >= rule.reject_gap:
        return STOP_TAU3
    return None


def intersection_should_stop(rule, lam) -> bool:
    """The intersection rule's corridor condition at the state ``lam``."""
    return _outside(rule, lam)


def stop_tag(rule, lam) -> str | None:
    """The event a sequential rule's one-state condition names at the state
    ``lam``, or None if the rule does not stop there."""
    if isinstance(rule, GapRule):
        return STOP_GAP if gap_should_stop(rule, lam) else None
    if isinstance(rule, GapIntersectionRule):
        return gi_should_stop(rule, lam)
    assert isinstance(rule, IntersectionRule)
    return STOP_INTERSECTION if intersection_should_stop(rule, lam) else None


def stepwise_run(rule, path: np.ndarray) -> tuple[int, frozenset[int], str]:
    """Stopping time, rejected labels and stop tag of a sequential rule on
    a whole cumulative-LLR path, scanned one row at a time; a path that
    ends without a stop is decided at its last row and tagged "horizon"."""
    for t, row in enumerate(path):
        tag = stop_tag(rule, row)
        if tag is not None:
            break
    else:
        tag = STOP_HORIZON
    return t + 1, decide(rule, row), tag


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


def fixed_trial(config, trial_index: int) -> tuple[int, frozenset[int], str]:
    """Stopping time, rejected labels and stop tag of one fixed-sample
    trial run on its own: a new generator of the trial's key, its (n, J)
    block, each stream's sum and p-value, and the rule's rejected labels."""
    rule, profile = config.rule, config.profile
    n = rule.sample_size
    x = sample_block(
        profile, config.signal, n, trial_rng(config.master_seed, trial_index)
    )
    totals = x.sum(axis=0)
    pvalues = [p_value(t, n, model) for t, model in zip(totals, profile.models)]
    if isinstance(rule, BhRule):
        rejected = bh_decide(pvalues, rule.level)
    else:
        rejected = top_m_decide(pvalues, rule.num_signals)
    return n, rejected, STOP_FIXED


def llr_increment(model, x: float) -> float:
    """One-observation log-likelihood ratio log f_alt(x) / f_null(x)."""
    if model.family == BERNOULLI and x not in (0.0, 1.0):
        raise ValueError(f"bernoulli observation must be 0 or 1, got {x!r}")
    if not math.isfinite(x):
        raise ValueError(f"observation must be finite, got {x!r}")
    return model.llr_slope * float(x) + model.llr_offset
