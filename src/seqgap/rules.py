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

Each rule class holds everything particular to its rule: ``name`` (its
type tag in configs and reports, and with the dataclass fields its
serialized form), ``check`` (compatibility with a stream profile and the
requested metrics), and ``bounds_cell`` / ``threshold_cell`` (its cells in
the command-line reports).  The sequential rules add ``at_budget`` (the
closed-form thresholds at an error budget, with the bound constant of a
controlled metric; both "auto" config thresholds and the asymptotic sweep
use it) and ``kappa`` (the first-order benchmark for the expected stopping
time).

All sequential rules expose ``should_stop`` (single state, reference
implementation) and ``scan_path`` (vectorized over a block of cumulative
LLR rows); both must agree on every path, which the tests check.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import ClassVar

import numpy as np
from scipy.special import ndtr

from .llr import OrderView, gap_at, order_view
from .metrics import MetricKind, bound_constants
from .models import GAUSSIAN_MEAN, StreamModel, StreamProfile, eta
from .thresholds import (
    ErrorBudget,
    GiThresholds,
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


@dataclass(frozen=True)
class Decision:
    """Terminal outcome of one procedure run.

    ``rejected`` holds 1-based stream labels.  ``stopped_by`` names the
    event that ended sampling; "horizon" means the sampling budget ran out
    and the decision was forced from the final state.
    """

    stopping_time: int
    rejected: frozenset[int]
    stopped_by: str

    @property
    def horizon_hit(self) -> bool:
        return self.stopped_by == STOP_HORIZON


def _check_block(path: np.ndarray) -> np.ndarray:
    path = np.asarray(path, dtype=float)
    if path.ndim != 2 or path.shape[1] < 2:
        raise ValueError("path must be a (steps, J) block with J >= 2")
    return path


def _fmt(x: float) -> str:
    """17-significant-digit decimal serialization (exact float round trip)."""
    return format(float(x), ".17g")


def _check_barriers(rule) -> None:
    for name in rule.threshold_names:
        value = getattr(rule, name)
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be positive, got {value}")


def _barrier_cells(rule) -> str:
    names = rule.threshold_names
    return ";".join(f"{name}={_fmt(getattr(rule, name))}" for name in names)


def _bracket_thresholds(
    budget: ErrorBudget,
    j: int,
    truth: frozenset[int],
    control: MetricKind,
    min_signals: int,
    max_signals: int,
) -> GiThresholds:
    """Formula thresholds of the bracket min_signals..max_signals, with the
    bound constant of the ``control`` metric."""
    c1 = bound_constants(
        control,
        "gap-intersection",
        j,
        num_signals=len(truth) or None,
        min_signals=min_signals,
        max_signals=max_signals,
    ).c1
    return gi_thresholds(budget, j, min_signals, max_signals, c1)


@dataclass(frozen=True)
class GapRule:
    """Stop when the gap at position ``num_signals`` reaches ``threshold``."""

    name: ClassVar[str] = "gap"
    num_signals: int
    threshold: float

    def __post_init__(self) -> None:
        if self.num_signals < 1:
            raise ValueError(f"num_signals must be >= 1, got {self.num_signals}")
        if not (math.isfinite(self.threshold) and self.threshold > 0):
            raise ValueError(f"threshold must be positive, got {self.threshold}")

    def _check_j(self, j: int) -> None:
        if not self.num_signals <= j - 1:
            raise ValueError(
                f"num_signals must be <= J - 1 (= {j - 1}), got {self.num_signals}"
            )

    def check(self, profile: StreamProfile, metrics: tuple[MetricKind, ...]) -> None:
        self._check_j(profile.j)

    def at_budget(
        self, budget: ErrorBudget, j: int, truth: frozenset[int], control: MetricKind
    ) -> GapRule:
        """This rule at the formula threshold controlling ``control``."""
        c1 = bound_constants(control, "gap", j, num_signals=self.num_signals).c1
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

    def should_stop(self, view: OrderView) -> bool:
        self._check_j(view.j)
        return gap_at(view, self.num_signals) >= self.threshold

    def scan_path(self, path: np.ndarray) -> tuple[int, str] | None:
        """First row of a cumulative-LLR block where the rule fires."""
        path = _check_block(path)
        j = path.shape[1]
        self._check_j(j)
        s = np.sort(path, axis=1)  # ascending; descending k-th is column J - k
        gaps = s[:, j - self.num_signals] - s[:, j - self.num_signals - 1]
        hits = np.nonzero(gaps >= self.threshold)[0]
        if hits.size == 0:
            return None
        return int(hits[0]), STOP_GAP

    def decide(self, view: OrderView, stopping_time: int, stopped_by: str) -> Decision:
        """Reject exactly the top ``num_signals`` streams."""
        self._check_j(view.j)
        return Decision(
            stopping_time=stopping_time,
            rejected=view.top_labels(self.num_signals),
            stopped_by=stopped_by,
        )


@dataclass(frozen=True)
class GapIntersectionRule:
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
        if self.min_signals < 0:
            raise ValueError(f"min_signals must be >= 0, got {self.min_signals}")
        if not self.min_signals < self.max_signals:
            raise ValueError(
                "min_signals must be strictly below max_signals, got "
                f"{self.min_signals} >= {self.max_signals}"
            )
        _check_barriers(self)

    def _check_j(self, j: int) -> None:
        if self.max_signals > j:
            raise ValueError(
                f"max_signals must be <= J (= {j}), got {self.max_signals}"
            )

    def check(self, profile: StreamProfile, metrics: tuple[MetricKind, ...]) -> None:
        self._check_j(profile.j)
        if MetricKind.PFDR in metrics and self.min_signals == 0:
            raise ValueError(
                "pfdr under the bracketed rule needs min_signals >= 1: with "
                "min_signals = 0 the rule can reject nothing, so the "
                "conditioning event can fail"
            )
        if MetricKind.PFNR in metrics and self.max_signals == profile.j:
            raise ValueError(
                "pfnr under the bracketed rule needs max_signals <= J - 1: "
                "with max_signals = J the rule can reject everything, so "
                "the conditioning event can fail"
            )

    def at_budget(
        self, budget: ErrorBudget, j: int, truth: frozenset[int], control: MetricKind
    ) -> GapIntersectionRule:
        """This bracket at the formula thresholds controlling ``control``."""
        lo, hi = self.min_signals, self.max_signals
        th = _bracket_thresholds(budget, j, truth, control, lo, hi)
        return replace(self, **asdict(th))

    def kappa(
        self, budget: ErrorBudget, profile: StreamProfile, truth: frozenset[int]
    ) -> float:
        info = eta(profile, truth)
        lo, hi = self.min_signals, self.max_signals
        return kappa_gi(budget, info.eta0, info.eta1, len(truth), lo, hi)

    def bounds_cell(self, j: int) -> str:
        return f"l={self.min_signals},u={self.max_signals}"

    def threshold_cell(self) -> str:
        return _barrier_cells(self)

    def should_stop(self, view: OrderView) -> str | None:
        """Name of the first sub-event that fires at this state, if any.

        Order statistics at positions 0 and J+1 act as +inf / -inf
        sentinels, so with min_signals = 0 the accept-side event reduces to
        "every statistic is at or below the lower barrier", and with
        max_signals = J the reject-side event reduces to "every statistic
        is at or above the upper barrier".
        """
        self._check_j(view.j)
        lo, hi = self.min_signals, self.max_signals
        lam_below_lo = float(view.sorted[lo]) if lo < view.j else -math.inf
        if lam_below_lo <= -self.accept_barrier and gap_at(view, lo) >= self.accept_gap:
            return STOP_TAU1
        outside = np.all(
            (view.sorted <= -self.accept_barrier)
            | (view.sorted >= self.reject_barrier)
        )
        if outside and lo <= view.positive_count <= hi:
            return STOP_TAU2
        lam_at_hi = float(view.sorted[hi - 1]) if hi >= 1 else math.inf
        if lam_at_hi >= self.reject_barrier and gap_at(view, hi) >= self.reject_gap:
            return STOP_TAU3
        return None

    def scan_path(self, path: np.ndarray) -> tuple[int, str] | None:
        path = _check_block(path)
        j = path.shape[1]
        self._check_j(j)
        lo, hi = self.min_signals, self.max_signals
        s = np.sort(path, axis=1)
        a, b = self.accept_barrier, self.reject_barrier

        lam_lo = s[:, j - lo] if lo >= 1 else np.full(len(s), math.inf)
        lam_below_lo = s[:, j - lo - 1]
        tau1 = (lam_below_lo <= -a) & (lam_lo - lam_below_lo >= self.accept_gap)

        positives = np.count_nonzero(path > 0.0, axis=1)
        outside = np.all((path <= -a) | (path >= b), axis=1)
        tau2 = outside & (positives >= lo) & (positives <= hi)

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

    def decide(self, view: OrderView, stopping_time: int, stopped_by: str) -> Decision:
        """Reject the top p' streams, p' the positive count clamped into the bracket."""
        self._check_j(view.j)
        p_prime = min(max(view.positive_count, self.min_signals), self.max_signals)
        return Decision(
            stopping_time=stopping_time,
            rejected=view.top_labels(p_prime),
            stopped_by=stopped_by,
        )


@dataclass(frozen=True)
class IntersectionRule:
    """Stop once every statistic leaves (-accept_barrier, reject_barrier).

    Rejects every stream with a strictly positive statistic.  Decision-
    equivalent to the bracketed rule with min_signals = 0 and
    max_signals = J: inside the full bracket both side events imply the
    corridor event, and the clamp is the identity on the positive count.
    """

    name: ClassVar[str] = "intersection"
    threshold_names: ClassVar[tuple[str, ...]] = ("accept_barrier", "reject_barrier")
    accept_barrier: float
    reject_barrier: float

    def __post_init__(self) -> None:
        _check_barriers(self)

    def check(self, profile: StreamProfile, metrics: tuple[MetricKind, ...]) -> None:
        for kind in (MetricKind.PFDR, MetricKind.PFNR):
            if kind in metrics:
                raise ValueError(
                    f"{kind.value} is not a valid metric for the intersection "
                    "rule: its conditioning event can fail"
                )

    def at_budget(
        self, budget: ErrorBudget, j: int, truth: frozenset[int], control: MetricKind
    ) -> IntersectionRule:
        """This rule at the formula barriers of the full bracket 0..J."""
        th = _bracket_thresholds(budget, j, truth, control, 0, j)
        return IntersectionRule(
            accept_barrier=th.accept_barrier, reject_barrier=th.reject_barrier
        )

    def kappa(
        self, budget: ErrorBudget, profile: StreamProfile, truth: frozenset[int]
    ) -> float:
        info = eta(profile, truth)
        return kappa_gi(budget, info.eta0, info.eta1, len(truth), 0, profile.j)

    def bounds_cell(self, j: int) -> str:
        return f"l=0,u={j}"

    def threshold_cell(self) -> str:
        return _barrier_cells(self)

    def should_stop(self, view: OrderView) -> bool:
        return bool(
            np.all(
                (view.sorted <= -self.accept_barrier)
                | (view.sorted >= self.reject_barrier)
            )
        )

    def scan_path(self, path: np.ndarray) -> tuple[int, str] | None:
        path = _check_block(path)
        outside = np.all(
            (path <= -self.accept_barrier) | (path >= self.reject_barrier), axis=1
        )
        hits = np.nonzero(outside)[0]
        if hits.size == 0:
            return None
        return int(hits[0]), STOP_INTERSECTION

    def decide(self, view: OrderView, stopping_time: int, stopped_by: str) -> Decision:
        return Decision(
            stopping_time=stopping_time,
            rejected=view.top_labels(view.positive_count),
            stopped_by=stopped_by,
        )


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
        if self.sample_size < 1:
            raise ValueError(f"sample_size must be >= 1, got {self.sample_size}")
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
        if self.sample_size < 1:
            raise ValueError(f"sample_size must be >= 1, got {self.sample_size}")
        if self.num_signals < 1:
            raise ValueError(f"num_signals must be >= 1, got {self.num_signals}")

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


def run_sequential(
    rule: SequentialRule,
    profile: StreamProfile,
    truth: frozenset[int],
    horizon: int,
    rng: np.random.Generator,
    *,
    first_block: int = 64,
    max_block: int = 8192,
) -> Decision:
    """Sample a fresh path until the rule fires or the horizon is exhausted.

    Observations are drawn in blocks on a fixed doubling schedule
    (first_block, 2*first_block, ..., max_block, max_block, ...), so the
    stream of uniforms consumed is a deterministic function of the horizon
    alone and the outcome is reproducible for a given generator state.
    If the horizon is exhausted the rule's decision is evaluated at the
    final state and tagged "horizon".
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    truth = profile.validate_signal_set(truth)
    lam = np.zeros(profile.j)
    taken = 0
    block = int(first_block)
    while taken < horizon:
        steps = min(block, horizon - taken)
        x = profile.sample_block(truth, steps, rng)
        path = lam + np.cumsum(profile.increments(x), axis=0)
        hit = rule.scan_path(path)
        if hit is not None:
            row, tag = hit
            return rule.decide(
                order_view(path[row]), stopping_time=taken + row + 1, stopped_by=tag
            )
        lam = path[-1]
        taken += steps
        block = min(block * 2, int(max_block))
    return rule.decide(order_view(lam), stopping_time=horizon, stopped_by=STOP_HORIZON)


def p_value(total: float, n: int, model: StreamModel) -> float:
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


def _checked_pvalues(pvalues) -> np.ndarray:
    p = np.asarray(pvalues, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise ValueError("pvalues must be a non-empty 1-D vector")
    if np.any((p < 0.0) | (p > 1.0)) or not np.all(np.isfinite(p)):
        raise ValueError("pvalues must lie in [0, 1]")
    return p


def bh_decide(pvalues, level: float) -> frozenset[int]:
    """Step-up procedure: reject the k smallest p-values where k is the
    largest i with p_(i) <= i * level / J (k = 0 rejects nothing).

    Returns 1-based stream labels; ties go to the lower label.
    """
    p = _checked_pvalues(pvalues)
    j = p.size
    order = np.argsort(p, kind="stable")
    passing = np.nonzero(p[order] <= level * np.arange(1, j + 1) / j)[0]
    k = int(passing[-1]) + 1 if passing.size else 0
    return frozenset(int(lbl) for lbl in order[:k] + 1)


def top_m_decide(pvalues, num_signals: int) -> frozenset[int]:
    """Reject the ``num_signals`` smallest p-values, lower label first on ties."""
    p = _checked_pvalues(pvalues)
    if not 1 <= num_signals <= p.size - 1:
        raise ValueError(
            f"num_signals must be in 1..{p.size - 1}, got {num_signals}"
        )
    order = np.argsort(p, kind="stable")
    return frozenset(int(lbl) for lbl in order[:num_signals] + 1)
