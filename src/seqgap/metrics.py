"""Multiple-testing error metrics over Monte Carlo trials.

Per trial the confusion counts are: v false rejections (noise streams
rejected), w missed signals (signal streams not rejected), r total
rejections, out of j streams.  Family-wise rates, false discovery /
non-discovery proportions (plain, positive-conditional, per-comparison,
per-family) are all simple functionals of these counts; the conditional
variants are undefined on trials where the conditioning event fails and
such trials are dropped from their average.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # rules imports this module for its validation and thresholds
    from .rules import Decision


class MetricKind(str, Enum):
    """Supported error metrics.

    fwe1/fwe2: probability of at least one false rejection / missed signal.
    fdr/fnr: expected false-discovery / false-non-discovery proportion with
    the 0/0 := 0 convention.  pfdr/pfnr: the same proportions conditional on
    at least one rejection / one non-rejection.  pcer: expected v / J.
    fpr: expected v divided by the configured signal count.  pfer: expected
    v; pfer2 is its type-2 counterpart, expected w.
    """

    FWE1 = "fwe1"
    FWE2 = "fwe2"
    FDR = "fdr"
    FNR = "fnr"
    PFDR = "pfdr"
    PFNR = "pfnr"
    PCER = "pcer"
    FPR = "fpr"
    PFER = "pfer"
    PFER2 = "pfer2"


CONDITIONAL_KINDS = (MetricKind.PFDR, MetricKind.PFNR)


class ConditioningError(ValueError):
    """A conditional metric's conditioning event occurred in no trial."""


@dataclass(frozen=True)
class ConfusionCounts:
    """Confusion counts of one trial's terminal decision."""

    v: int
    w: int
    r: int
    j: int

    def __post_init__(self) -> None:
        if not 0 <= self.v <= self.r <= self.j:
            raise ValueError(
                f"need 0 <= v <= r <= j, got v={self.v} r={self.r} j={self.j}"
            )
        if not 0 <= self.w <= self.j - self.r:
            raise ValueError(
                f"need 0 <= w <= j - r, got w={self.w} r={self.r} j={self.j}"
            )


@dataclass(frozen=True)
class MetricEstimate:
    """Monte Carlo estimate with its standard error.

    ``n_effective`` is the number of trials entering the average; for
    conditional metrics this is the count of trials where the conditioning
    event occurred.
    """

    value: float
    se: float
    n_effective: int


@dataclass(frozen=True)
class BoundConstants:
    """Constants linking a metric to the family-wise error rates.

    The metric is bounded above by c1_type1 * FWE1 (type-1 side) and
    c1_type2 * FWE2 (type-2 side), and below by c2 times the matching
    family-wise rate.  ``c1`` is the single constant valid for both sides,
    used by the threshold formulas.
    """

    c1_type1: float
    c1_type2: float
    c2: float

    @property
    def c1(self) -> float:
        return max(self.c1_type1, self.c1_type2)


def confusion(decision: Decision, truth: frozenset[int], j: int) -> ConfusionCounts:
    """Count a decision's errors against the true signal set."""
    labels = range(1, j + 1)
    rejected = frozenset(decision.rejected)
    truth = frozenset(truth)
    for name, group in (("rejected", rejected), ("truth", truth)):
        bad = [lbl for lbl in group if lbl not in labels]
        if bad:
            raise ValueError(f"{name} labels outside 1..{j}: {sorted(bad)}")
    return ConfusionCounts(
        v=len(rejected - truth),
        w=len(truth - rejected),
        r=len(rejected),
        j=j,
    )


def per_trial(
    kind: MetricKind, counts: ConfusionCounts, signal_count: int | None = None
) -> float | None:
    """One trial's contribution to a metric, or None when undefined.

    ``signal_count`` is the configured |signal set| and is required only
    for the FPR divisor.
    """
    kind = MetricKind(kind)
    v, w, r, j = counts.v, counts.w, counts.r, counts.j
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
        if signal_count is None or signal_count < 1:
            raise ValueError(
                f"fpr needs a positive signal_count divisor, got {signal_count!r}"
            )
        return v / signal_count
    if kind is MetricKind.PFER:
        return float(v)
    return float(w)  # PFER2


def mean_se(values: Sequence[float]) -> MetricEstimate:
    """Compensated mean and standard error of a sample.

    Sums use exact compensated summation so the result is independent of
    how trials were batched across workers.  A single observation gets
    se = 0 rather than a division by zero.
    """
    n = len(values)
    if n == 0:
        raise ValueError("cannot average an empty sample")
    mean = math.fsum(values) / n
    if n == 1:
        return MetricEstimate(value=mean, se=0.0, n_effective=1)
    var = math.fsum((x - mean) ** 2 for x in values) / (n - 1)
    return MetricEstimate(value=mean, se=math.sqrt(var / n), n_effective=n)


def aggregate(
    kind: MetricKind,
    trials: Iterable[ConfusionCounts],
    signal_count: int | None = None,
) -> MetricEstimate:
    """Average a metric over trials, in trial order.

    Conditional metrics drop trials where they are undefined; if that
    leaves nothing, a ConditioningError names the metric instead of
    returning a silent NaN.
    """
    kind = MetricKind(kind)
    contributions = [per_trial(kind, t, signal_count) for t in trials]
    if not contributions:
        raise ValueError("no trials to aggregate")
    kept = [x for x in contributions if x is not None]
    if not kept:
        raise ConditioningError(
            f"{kind.value} is undefined: its conditioning event occurred in no trial"
        )
    return mean_se(kept)


def bound_constants(
    kind: MetricKind,
    rule_class: str,
    j: int,
    *,
    num_signals: int | None = None,
    min_signals: int | None = None,
    max_signals: int | None = None,
) -> BoundConstants:
    """Constants tying a metric to the family-wise rates for a rule class.

    ``rule_class`` is "gap" (needs ``num_signals`` = m) or
    "gap-intersection" (needs the bracket ``min_signals``/``max_signals``;
    the plain intersection rule is the full bracket 0..J).  The
    positive-conditional metrics admit constants under the bracketed rule
    only when 1 <= min_signals and max_signals <= J - 1, because only then
    are both conditioning events certain.
    """
    kind = MetricKind(kind)
    if j < 2:
        raise ValueError(f"need j >= 2, got {j}")
    if rule_class == "gap":
        if num_signals is None or not 1 <= num_signals <= j - 1:
            raise ValueError(
                f"gap rule needs num_signals in 1..{j - 1}, got {num_signals!r}"
            )
        m = num_signals
        reject_cap, accept_cap = m, j - m
    elif rule_class == "gap-intersection":
        if (
            min_signals is None
            or max_signals is None
            or not 0 <= min_signals < max_signals <= j
        ):
            raise ValueError(
                "gap-intersection rule needs 0 <= min_signals < max_signals <= "
                f"{j}, got {min_signals!r}..{max_signals!r}"
            )
        m = num_signals
        reject_cap, accept_cap = max_signals, j - min_signals
    else:
        raise ValueError(f"unknown rule_class {rule_class!r}")

    if kind in (MetricKind.FWE1, MetricKind.FWE2):
        return BoundConstants(1.0, 1.0, 1.0)
    if kind in (MetricKind.FDR, MetricKind.FNR):
        return BoundConstants(1.0, 1.0, 1.0 / j)
    if kind in CONDITIONAL_KINDS:
        if rule_class == "gap-intersection" and not (
            min_signals >= 1 and max_signals <= j - 1
        ):
            raise ValueError(
                f"{kind.value} bounds need 1 <= min_signals and max_signals <= "
                f"J - 1 under the bracketed rule; got bracket "
                f"{min_signals}..{max_signals} with J = {j}"
            )
        return BoundConstants(1.0, 1.0, 1.0 / j)
    if kind in (MetricKind.PFER, MetricKind.PFER2):
        return BoundConstants(float(reject_cap), float(accept_cap), 1.0)
    if kind is MetricKind.PCER:
        return BoundConstants(reject_cap / j, accept_cap / j, 1.0 / j)
    # FPR: the divisor is the configured signal count m, which must be a
    # valid rejection count for the rule class.
    if m is None or not 1 <= m <= j - 1:
        raise ValueError(f"fpr bounds need num_signals in 1..{j - 1}, got {m!r}")
    return BoundConstants(
        c1_type1=reject_cap / m,
        c1_type2=accept_cap / (j - m),
        c2=1.0 / max(m, j - m),
    )
