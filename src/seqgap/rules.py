"""Stopping rules and decision procedures.

Sequential rules watch the running LLR order statistics and fire on one of
these events:

* gap rule: the gap between the m-th and (m+1)-th largest statistics reaches
  a threshold; always rejects exactly the top m streams.
* gap-intersection rule: three competing events for a bracket l <= |signals|
  <= u — an accept-side event (tau1: the (l+1)-th statistic is below the
  lower barrier with a wide enough gap above it), a corridor event (tau2:
  every statistic sits outside the open interval between the barriers and
  the positive count is inside the bracket), and a reject-side event (tau3:
  the u-th statistic clears the upper barrier with a wide enough gap below
  it).  Rejects the top p' streams where p' clamps the positive count into
  [l, u].
* intersection rule: the corridor event alone with no bracket; rejects every
  stream with a positive statistic.

Fixed-sample baselines observe a fixed number of steps per stream, convert
the per-stream sums to one-sided p-values, and apply either the step-up
false-discovery procedure at a given level or a reject-the-smallest-m rule.

Every rule class has ``name`` (its type tag in configs and reports, and
with the dataclass fields its serialized form), ``check`` (compatibility
with a stream profile and the requested metrics) and ``bounds_cell`` /
``threshold_cell`` (its cells in the command-line reports).  The
sequential rules add ``at_budget`` (the closed-form thresholds at an error
budget, with the bound constant of a controlled metric; both "auto" config
thresholds and the asymptotic sweep use it) and ``kappa`` (the first-order
benchmark for the expected stopping time).

A sequential rule is its scan plus its rejection range, and the three
rules differ only in the range: ``rejections(j)`` is m..m, l..u or 0..J.
``scan_path`` finds the first row of a (steps, J) block of cumulative LLRs
where the rule fires, and ``decide`` turns that row's order statistics
into a rejection mask.  Two private bases derive the rest from the range:

* ``_SequentialRule``: ``check`` (pfdr needs lo >= 1, pfnr hi <= J - 1),
  ``decide`` (the top p' streams, p' the positive count clamped into the
  range) and the bound constant of a controlled metric over the range.
* ``_BarrierRule``, for the two rules with corridor barriers: the barrier
  check, ``at_budget`` and ``kappa`` of the range as a bracket, both
  report cells, and the corridor test that both scans use.

``GapRule`` keeps its gap scan, its threshold formula and benchmark, and
its ``m=`` cell; ``GapIntersectionRule`` its bracket fields and three-event
scan; ``IntersectionRule`` its two barriers and a corridor-only scan,
which sorts nothing.  The tests keep a one-state form of each stopping
condition as an independent oracle and check, on random blocks with ties,
infinite entries and every bracket edge, that ``scan_path`` stops at the
same row with the same tag.

``run_shared`` draws a path a block at a time on the schedule that
``next_block`` states for it and for the gap-threshold search (blocks
that double from 64 rows, capped at ``BLOCK_VALUES`` = 2**12 values so
that a block stays small at any J), and every rule of a tuple that has
not fired yet scans each block, so rules that share a path (the budget
points of a sweep) draw it once; ``run_sequential`` is its one-rule case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .metrics import MetricKind, bound_constants
from .models import (
    GAUSSIAN_MEAN,
    StreamProfile,
    check_count,
    check_int,
    check_real,
    eta,
    store_checked,
)
from .thresholds import (
    ErrorBudget,
    gap_threshold,
    gi_thresholds,
    kappa_gap,
    kappa_gi,
)

STOP_GAP = "gap"
STOP_TAU1 = "tau1"
STOP_TAU2 = "tau2"
STOP_TAU3 = "tau3"
STOP_INTERSECTION = "intersection"
STOP_FIXED = "fixed-sample"
STOP_HORIZON = "horizon"


@dataclass(frozen=True, eq=False)
class Decision:
    """Terminal outcome of one procedure run.

    ``rejected`` is a (J,) boolean mask over 0-based stream columns, True
    where the stream is rejected.  ``stopped_by`` names the event that
    ended sampling; "horizon" means the sampling budget ran out and the
    decision was forced from the final state.
    """

    stopping_time: int
    rejected: np.ndarray
    stopped_by: str


@dataclass(frozen=True)
class OrderView:
    """Order statistics of one LLR vector.

    ``ranking[k]`` is the 0-based column carrying the (k+1)-th largest
    value.  Equal values keep column order, so the lowest column wins the
    higher rank.  ``positive_count`` counts strictly positive statistics.
    """

    ranking: np.ndarray
    positive_count: int

    @property
    def j(self) -> int:
        return int(self.ranking.size)


def _mask(j: int, columns: np.ndarray) -> np.ndarray:
    """(J,) boolean mask, True at ``columns``."""
    mask = np.zeros(j, dtype=bool)
    mask[columns] = True
    return mask


def ranking(lam: np.ndarray) -> np.ndarray:
    """Column indices of each row of ``lam`` from the largest value down,
    the lowest column first on ties."""
    # A stable sort of the negated values breaks ties by column order.
    return np.argsort(-lam, axis=-1, kind="stable")


def order_view(lam: np.ndarray) -> OrderView:
    """Sort an LLR vector in decreasing order, lowest column first on ties."""
    lam = np.asarray(lam, dtype=float)
    return OrderView(ranking(lam), int(np.count_nonzero(lam > 0.0)))


def _check_block(path: np.ndarray, stack: bool = False) -> np.ndarray:
    """``path`` as floats: one (steps, J) block, or with ``stack`` a
    (..., steps, J) stack of blocks, with J >= 2."""
    path = np.asarray(path, dtype=float)
    if (path.ndim < 2 if stack else path.ndim != 2) or path.shape[-1] < 2:
        shape = "(..., steps, J) stack" if stack else "(steps, J) block"
        raise ValueError(f"path must be a {shape} with J >= 2")
    return path


def _fmt(x: float) -> str:
    """17-significant-digit decimal serialization (exact float round trip)."""
    return format(float(x), ".17g")


class _SequentialRule:
    """What a sequential rule derives from its rejection range.

    ``rejections(j)`` is the range lo..hi of how many of J streams the
    rule may reject from a row, and raises if the rule does not fit J.
    """

    def check(self, profile: StreamProfile, metrics: tuple[MetricKind, ...]) -> None:
        j = profile.j
        lo, hi = self.rejections(j)
        for kind, needs, fails in (
            (MetricKind.PFDR, "min_signals >= 1", lo < 1),
            (MetricKind.PFNR, "max_signals <= J - 1", hi > j - 1),
        ):
            if fails and kind in metrics:
                raise ValueError(
                    f"{kind.value} needs {needs}: the {self.name} rule rejects "
                    f"{lo}..{hi} of J = {j}, so the conditioning event can fail"
                )

    def decide(self, view: OrderView) -> np.ndarray:
        """Mask rejecting the top p' streams, p' the positive count clamped
        into the rejection range."""
        j = view.j
        lo, hi = self.rejections(j)
        return _mask(j, view.ranking[: min(max(view.positive_count, lo), hi)])

    def _c1(self, control: MetricKind, j: int, truth: frozenset[int]) -> float:
        """Bound constant of ``control`` over the rejection range."""
        lo, hi = self.rejections(j)
        return bound_constants(control, j, lo, hi, len(truth)).c1


class _BarrierRule(_SequentialRule):
    """A sequential rule with the corridor (-accept_barrier, reject_barrier)
    and the formula thresholds of its rejection range as a bracket."""

    def __post_init__(self) -> None:
        store_checked(self, check_real, *self.threshold_names)
        for name in self.threshold_names:
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive, got {value}")

    def at_budget(
        self, budget: ErrorBudget, j: int, truth: frozenset[int], control: MetricKind
    ) -> _BarrierRule:
        """This rule at the formula thresholds controlling ``control``, with
        the bound constant of its rejection range."""
        th = gi_thresholds(budget, j, *self.rejections(j), self._c1(control, j, truth))
        return replace(self, **{n: getattr(th, n) for n in self.threshold_names})

    def kappa(
        self, budget: ErrorBudget, profile: StreamProfile, truth: frozenset[int]
    ) -> float:
        info = eta(profile, truth)
        lo, hi = self.rejections(profile.j)
        return kappa_gi(budget, info.eta0, info.eta1, len(truth), lo, hi)

    def bounds_cell(self, j: int) -> str:
        lo, hi = self.rejections(j)
        return f"l={lo},u={hi}"

    def threshold_cell(self) -> str:
        names = self.threshold_names
        return ";".join(f"{name}={_fmt(getattr(self, name))}" for name in names)

    def _outside(self, path: np.ndarray) -> np.ndarray:
        """Rows of a block where every statistic has left the corridor."""
        return np.all(
            (path <= -self.accept_barrier) | (path >= self.reject_barrier), axis=1
        )


@dataclass(frozen=True)
class GapRule(_SequentialRule):
    """Stop when the gap at position ``num_signals`` reaches ``threshold``."""

    name: ClassVar[str] = "gap"
    num_signals: int
    threshold: float

    def __post_init__(self) -> None:
        store_checked(self, check_count, "num_signals")
        store_checked(self, check_real, "threshold")
        if not (math.isfinite(self.threshold) and self.threshold > 0):
            raise ValueError(f"threshold must be positive, got {self.threshold}")

    def rejections(self, j: int) -> tuple[int, int]:
        m = self.num_signals
        if not m <= j - 1:
            raise ValueError(f"num_signals must be <= J - 1 (= {j - 1}), got {m}")
        return m, m

    def at_budget(
        self, budget: ErrorBudget, j: int, truth: frozenset[int], control: MetricKind
    ) -> GapRule:
        """This rule at the formula threshold controlling ``control``, with
        the bound constant of its rejection range m..m."""
        c1 = self._c1(control, j, truth)
        return replace(self, threshold=gap_threshold(budget, self.num_signals, j, c1))

    def kappa(
        self, budget: ErrorBudget, profile: StreamProfile, truth: frozenset[int]
    ) -> float:
        info = eta(profile, truth)
        return kappa_gap(budget, info.eta0, info.eta1)

    def bounds_cell(self, j: int) -> str:
        return f"m={self.num_signals}"

    def threshold_cell(self) -> str:
        return _fmt(self.threshold)

    def gap_column(self, path: np.ndarray) -> np.ndarray:
        """Gap at position ``num_signals`` in every row of a cumulative-LLR
        block, or of each block of a (..., steps, J) stack, each row on its
        own; the threshold plays no part, so one rule serves any threshold."""
        path = _check_block(path, stack=True)
        j = path.shape[-1]
        m, _ = self.rejections(j)
        s = np.sort(path, axis=-1)  # ascending; descending k-th is column J - k
        return s[..., j - m] - s[..., j - m - 1]

    def scan_path(self, path: np.ndarray) -> tuple[int, str] | None:
        """First row of a cumulative-LLR block where the rule fires."""
        hits = np.nonzero(self.gap_column(_check_block(path)) >= self.threshold)[0]
        if hits.size == 0:
            return None
        return int(hits[0]), STOP_GAP

    # Bound here, not only inherited, so the layer trace can patch it on
    # this class.
    decide = _SequentialRule.decide


@dataclass(frozen=True)
class GapIntersectionRule(_BarrierRule):
    """Bracketed rule for ``min_signals`` <= |signals| <= ``max_signals``.

    ``accept_barrier`` and ``reject_barrier`` are the magnitudes of the
    negative and positive corridor walls.  ``accept_gap`` is the order-
    statistic gap required at position ``min_signals`` for the accept-side
    stop, ``reject_gap`` the gap required at position ``max_signals`` for
    the reject-side stop.
    """

    name: ClassVar[str] = "gap-intersection"
    threshold_names: ClassVar[tuple[str, ...]] = (
        "accept_barrier",
        "reject_barrier",
        "accept_gap",
        "reject_gap",
    )
    min_signals: int
    max_signals: int
    accept_barrier: float
    reject_barrier: float
    accept_gap: float
    reject_gap: float

    def __post_init__(self) -> None:
        store_checked(self, check_count, "min_signals", least=0)
        store_checked(self, check_int, "max_signals")
        if not self.min_signals < self.max_signals:
            raise ValueError(
                "min_signals must be strictly below max_signals, got "
                f"{self.min_signals} >= {self.max_signals}"
            )
        super().__post_init__()

    def rejections(self, j: int) -> tuple[int, int]:
        if self.max_signals > j:
            raise ValueError(
                f"max_signals must be <= J (= {j}), got {self.max_signals}"
            )
        return self.min_signals, self.max_signals

    def scan_path(self, path: np.ndarray) -> tuple[int, str] | None:
        """First row of a cumulative-LLR block where a sub-event fires, and
        its name; tau1 wins over tau2, and tau2 over tau3, on the same row.

        Order statistics at positions 0 and J+1 act as +inf / -inf
        sentinels, so with min_signals = 0 the accept-side event reduces to
        "every statistic is at or below the lower barrier", and with
        max_signals = J the reject-side event reduces to "every statistic
        is at or above the upper barrier".
        """
        path = _check_block(path)
        j = path.shape[1]
        lo, hi = self.rejections(j)
        s = np.sort(path, axis=1)
        a, b = self.accept_barrier, self.reject_barrier

        lam_lo = s[:, j - lo] if lo >= 1 else np.full(len(s), math.inf)
        lam_below_lo = s[:, j - lo - 1]
        tau1 = (lam_below_lo <= -a) & (lam_lo - lam_below_lo >= self.accept_gap)

        positives = np.count_nonzero(path > 0.0, axis=1)
        tau2 = self._outside(path) & (positives >= lo) & (positives <= hi)

        lam_hi = s[:, j - hi]
        lam_below_hi = s[:, j - hi - 1] if hi <= j - 1 else np.full(len(s), -math.inf)
        tau3 = (lam_hi >= b) & (lam_hi - lam_below_hi >= self.reject_gap)

        hits = np.nonzero(tau1 | tau2 | tau3)[0]
        if hits.size == 0:
            return None
        row = int(hits[0])
        if tau1[row]:
            return row, STOP_TAU1
        if tau2[row]:
            return row, STOP_TAU2
        return row, STOP_TAU3

    # Bound here, not only inherited, so the layer trace can patch it on
    # this class.
    decide = _SequentialRule.decide


@dataclass(frozen=True)
class IntersectionRule(_BarrierRule):
    """Stop once every statistic leaves (-accept_barrier, reject_barrier).

    Rejects every stream with a strictly positive statistic: its rejection
    range is 0..J, so the clamp is the identity on the positive count.
    Decision-equivalent to the bracketed rule with min_signals = 0 and
    max_signals = J, where both side events imply the corridor event; its
    own scan tests the corridor alone and sorts nothing.
    """

    name: ClassVar[str] = "intersection"
    threshold_names: ClassVar[tuple[str, ...]] = ("accept_barrier", "reject_barrier")
    accept_barrier: float
    reject_barrier: float

    def rejections(self, j: int) -> tuple[int, int]:
        return 0, j

    def scan_path(self, path: np.ndarray) -> tuple[int, str] | None:
        hits = np.nonzero(self._outside(_check_block(path)))[0]
        if hits.size == 0:
            return None
        return int(hits[0]), STOP_INTERSECTION


def _check_pvalue_family(profile: StreamProfile) -> None:
    for model in profile.models:
        if model.family != GAUSSIAN_MEAN:
            raise ValueError(
                "fixed-sample rules need p-values, which are only "
                f"available for the {GAUSSIAN_MEAN} family; stream "
                f"family {model.family!r} is not supported"
            )


@dataclass(frozen=True)
class BhRule:
    """Fixed-sample step-up procedure at ``level`` after ``sample_size`` steps."""

    name: ClassVar[str] = "bh"
    sample_size: int
    level: float

    def __post_init__(self) -> None:
        store_checked(self, check_count, "sample_size")
        store_checked(self, check_real, "level")
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"level must be in (0, 1), got {self.level}")

    def check(self, profile: StreamProfile, metrics: tuple[MetricKind, ...]) -> None:
        _check_pvalue_family(profile)

    def bounds_cell(self, j: int) -> str:
        return ""

    def threshold_cell(self) -> str:
        return f"n={self.sample_size};level={_fmt(self.level)}"


@dataclass(frozen=True)
class TopMRule:
    """Fixed-sample rule rejecting the ``num_signals`` smallest p-values."""

    name: ClassVar[str] = "top-m"
    sample_size: int
    num_signals: int

    def __post_init__(self) -> None:
        store_checked(self, check_count, "sample_size", "num_signals")

    def check(self, profile: StreamProfile, metrics: tuple[MetricKind, ...]) -> None:
        _check_pvalue_family(profile)
        j = profile.j
        if self.num_signals > j - 1:
            raise ValueError(
                f"top-m rule num_signals must be <= J - 1 = {j - 1}, "
                f"got {self.num_signals}"
            )

    def bounds_cell(self, j: int) -> str:
        return f"m={self.num_signals}"

    def threshold_cell(self) -> str:
        return f"n={self.sample_size}"


SequentialRule = GapRule | GapIntersectionRule | IntersectionRule
FixedSampleRule = BhRule | TopMRule
Rule = SequentialRule | FixedSampleRule


FIRST_BLOCK = 64
BLOCK_VALUES = 2**12


def cumulate(path: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Turn a block of LLR increments into cumulative-LLR rows, in place.

    ``path`` is a (steps, J) block or a (..., steps, J) stack of blocks,
    and ``lam`` the running sums each block's path reached before it, (J,)
    or (..., J).  The running sum is added to the first increment row
    before the cumulative sum, so every row is summed in the same order as
    one cumulative sum over the whole path, and the rows equal it bit for
    bit on any block schedule.
    """
    path[..., 0, :] += lam
    return np.cumsum(path, axis=-2, out=path)


def _smaller(a, b):
    """``min(a, b)`` of two ints, elementwise for int columns; Python ints
    stay Python ints, without the array conversion ``np.minimum`` costs."""
    return a - (a - b) * (a > b)


def next_block(taken, horizon, j):
    """The rows of a path's next block over J streams, after ``taken`` rows
    drawn so far: an int, or an int column with one entry per path.

    Blocks follow one doubling schedule (FIRST_BLOCK, 2 * FIRST_BLOCK, ...)
    capped at BLOCK_VALUES values, BLOCK_VALUES // J rows (at least one),
    and cut at the horizon, so the uniforms a path consumes depend on J and
    the horizon alone.  A cap in rows would let a block's values grow with
    J; the cap in values keeps every block within 32 KiB at any J (one row
    when J > 4096), and a path draws less than a block past its stop.
    Before the blocks reach the cap a path has taken FIRST_BLOCK *
    (2**k - 1) rows, so its next block is ``taken + FIRST_BLOCK``.
    """
    cap = BLOCK_VALUES // j or 1
    return _smaller(_smaller(taken + FIRST_BLOCK, cap), horizon - taken)


def run_sequential(
    rule: SequentialRule,
    profile: StreamProfile,
    signal: np.ndarray,
    horizon: int,
    rng: np.random.Generator,
) -> Decision:
    """Draw a fresh path block by block until the rule fires or the
    horizon is exhausted, and return the rule's decision: ``run_shared``
    of this rule alone."""
    return run_shared((rule,), profile, signal, horizon, rng)[0]


def run_shared(
    rules: tuple[SequentialRule, ...],
    profile: StreamProfile,
    signal: np.ndarray,
    horizon: int,
    rng: np.random.Generator,
) -> list[Decision]:
    """The decision of each of ``rules`` on one path, drawn block by block
    until every rule has fired or the horizon is exhausted.

    Each block is drawn under the (J,) boolean ``signal`` mask, turned into
    cumulative LLRs (``cumulate`` carries the running sums from block to
    block) and scanned by every rule that has not fired yet.  A rule that
    fires at a block's row r decides from that row; a rule that never
    fires decides from the final row, tagged "horizon".  The path does not
    depend on the block schedule, so each rule gets the decision it gets
    on a path of its own.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    decisions = [None] * len(rules)
    waiting = range(len(rules))
    j = profile.j
    lam = np.zeros(j)
    taken = 0
    while True:
        steps = next_block(taken, horizon, j)
        x = profile.sample_block(signal, steps, rng)
        path = cumulate(profile.increments(x, out=x), lam)
        left = []
        for k in waiting:
            hit = rules[k].scan_path(path)
            if hit is None:
                left.append(k)
                continue
            row, tag = hit
            rejected = rules[k].decide(order_view(path[row]))
            decisions[k] = Decision(taken + row + 1, rejected, tag)
        waiting = left
        taken += steps
        if not waiting or taken == horizon:
            break
        lam = path[-1].copy()  # a view would keep the whole block alive
    for k in waiting:
        rejected = rules[k].decide(order_view(path[-1]))
        decisions[k] = Decision(horizon, rejected, STOP_HORIZON)
    return decisions


def _checked_pvalues(pvalues) -> np.ndarray:
    p = np.asarray(pvalues, dtype=float)
    if p.ndim < 1 or p.size < 1:
        raise ValueError("pvalues must be a non-empty (..., J) stack")
    # Both comparisons are false on NaN, and a NaN is the min and the max.
    if not (0.0 <= p.min() and p.max() <= 1.0):
        raise ValueError("pvalues must lie in [0, 1]")
    return p


def _first(order: np.ndarray, k) -> np.ndarray:
    """Masks True at the first ``k`` columns of each row of ``order``, a
    (..., J) stack of column permutations; ``k`` is one count or one per
    row."""
    mask = np.empty(order.shape, dtype=bool)
    ranks = np.arange(order.shape[-1])
    np.put_along_axis(mask, order, ranks < np.expand_dims(k, -1), axis=-1)
    return mask


def bh_decide(pvalues, level: float) -> np.ndarray:
    """Step-up procedure: reject the k smallest p-values where k is the
    largest i with p_(i) <= i * level / J (k = 0 rejects nothing).

    Takes one (J,) vector or a (..., J) stack, each row on its own, and
    returns the rejection masks in its shape; ties go to the lower column.
    """
    p = _checked_pvalues(pvalues)
    j = p.shape[-1]
    order = np.argsort(p, axis=-1, kind="stable")
    ranks = np.arange(1, j + 1)
    passing = np.take_along_axis(p, order, axis=-1) <= level * ranks / j
    return _first(order, np.max(passing * ranks, axis=-1))  # the largest passing i


def top_m_decide(pvalues, num_signals: int) -> np.ndarray:
    """Masks rejecting the ``num_signals`` smallest p-values of each row of
    a (J,) vector or a (..., J) stack, lower column first on ties."""
    p = _checked_pvalues(pvalues)
    j = p.shape[-1]
    if not 1 <= num_signals <= j - 1:
        raise ValueError(f"num_signals must be in 1..{j - 1}, got {num_signals}")
    return _first(np.argsort(p, axis=-1, kind="stable"), num_signals)
