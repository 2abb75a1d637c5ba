"""Multiple-testing error metrics over Monte Carlo trials.

Per trial the confusion counts are: v false rejections (noise streams
rejected), w missed signals (signal streams not rejected), r total
rejections, out of j streams.  Every metric is a simple functional of
these counts, stated here once with its bound constants, whether it is a
proportion, and the experiments that leave it undefined; a type-2 metric
is its type-1 mirror.  The conditional metrics are undefined on trials
where their conditioning event fails, which their average drops.  Counts
are held as columns, one entry per trial in trial order, and each
metric's contributions are computed a column at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np


class MetricKind(str, Enum):
    """Supported error metrics.

    Type 1: fwe1, the probability of at least one false rejection; fdr, the
    expected false-discovery proportion with 0/0 := 0; pfdr, the same
    conditional on at least one rejection; pcer, expected v / J; fpr,
    expected v over the signal count w + r - v; pfer, expected v.  Type 2:
    fwe2, fnr, pfnr and pfer2 mirror fwe1, fdr, pfdr and pfer, with w in the
    place of v and J - r in the place of r.  pcer and fpr have no mirror.
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

    @property
    def mirror(self) -> MetricKind | None:
        """This kind read from the other side; None for pcer and fpr."""
        return _MIRRORS.get(self)

    @property
    def proportion(self) -> bool:
        """False for the expected counts pfer and pfer2."""
        return MetricKind.PFER not in (self, self.mirror)


# Each type-2 kind and the type-1 kind it mirrors.
_TYPE1_OF = {
    MetricKind.FWE2: MetricKind.FWE1,
    MetricKind.FNR: MetricKind.FDR,
    MetricKind.PFNR: MetricKind.PFDR,
    MetricKind.PFER2: MetricKind.PFER,
}
_MIRRORS = {**_TYPE1_OF, **{one: two for two, one in _TYPE1_OF.items()}}


def check_distinct(kinds: Sequence[MetricKind], name: str = "metrics") -> None:
    """Reject a metric requested twice, naming ``name`` and the repeats."""
    repeated = sorted({kind.value for kind in kinds if kinds.count(kind) > 1})
    if repeated:
        raise ValueError(f"{name}: repeated {repeated}")


class ConditioningError(ValueError):
    """A conditional metric's conditioning event occurred in no trial."""


class NoBoundConstants(ValueError):
    """A metric has no bound constants for a rule's rejection range or for
    the signal count."""


@dataclass(frozen=True, eq=False)
class ConfusionCounts:
    """Confusion counts of a run of trials' terminal decisions.

    ``v``, ``w`` and ``r`` are integer columns with one entry per trial,
    in trial order, each trial out of ``j`` streams.  Construction checks
    every trial at once and names the first bad one by its position.
    """

    v: np.ndarray
    w: np.ndarray
    r: np.ndarray
    j: int

    def __post_init__(self) -> None:
        v, w, r, j = self.v, self.w, self.r, self.j
        if not v.ndim == 1 or not v.shape == w.shape == r.shape:
            raise ValueError(
                "v, w and r must be columns of one length, got shapes "
                f"{v.shape}, {w.shape} and {r.shape}"
            )
        for bad, need in (
            ((v < 0) | (v > r) | (r > j), "0 <= v <= r <= j"),
            ((w < 0) | (w > j - r), "0 <= w <= j - r"),
        ):
            if bad.any():
                t = int(np.argmax(bad))
                raise ValueError(
                    f"need {need}, got v={v[t]} w={w[t]} r={r[t]} j={j} in trial {t}"
                )

    @classmethod
    def of(cls, hits: np.ndarray, rejections, signals: int, j: int) -> ConfusionCounts:
        """Counts of trials that reject ``rejections`` of ``j`` streams,
        ``hits`` of them signals, with ``signals`` signals each; ``hits``
        is a column and ``rejections`` a column or one count for all."""
        r = np.broadcast_to(rejections, hits.shape)
        return cls(v=r - hits, w=signals - hits, r=r, j=j)

    @classmethod
    def concatenate(cls, parts: Sequence[ConfusionCounts]) -> ConfusionCounts:
        """The trials of ``parts``, which share one j, one after another."""
        return cls(
            *(np.concatenate([getattr(p, name) for p in parts]) for name in "vwr"),
            j=parts[0].j,
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


def confusion(rejected: np.ndarray, signal: np.ndarray) -> ConfusionCounts:
    """Count the errors of each (J,) boolean rejection mask of a (..., J)
    stack against a (J,) boolean signal mask, one entry per mask in order
    (a single mask gives columns of one entry)."""
    rejected = np.asarray(rejected)
    if rejected.shape[-1:] != signal.shape or rejected.dtype != bool:
        raise ValueError(
            f"rejected must be a stack of {signal.shape} boolean masks, got "
            f"shape {rejected.shape} and dtype {rejected.dtype}"
        )
    rejected = rejected.reshape(-1, signal.size)
    hits = np.count_nonzero(rejected & signal, axis=1)
    rejections = np.count_nonzero(rejected, axis=1)
    return ConfusionCounts.of(hits, rejections, int(np.count_nonzero(signal)), signal.size)


def _contributions(kind: MetricKind, counts: ConfusionCounts) -> np.ndarray:
    """Each trial's contribution to a metric, as a float column, without
    the trials where a conditional metric is undefined.

    A type-2 kind is its mirror on the swapped counts.  FPR divides by the
    trial's signal count w + r - v, which must be positive.
    """
    v, w, r, j = counts.v, counts.w, counts.r, counts.j
    if kind in _TYPE1_OF:
        kind, v, w, r = _TYPE1_OF[kind], w, v, j - r
    if kind is MetricKind.FWE1:
        return (v >= 1).astype(float)
    if kind is MetricKind.FDR:
        return v / np.maximum(r, 1)
    if kind is MetricKind.PFDR:
        kept = r > 0
        return v[kept] / r[kept]
    if kind is MetricKind.PCER:
        return v / j
    if kind is MetricKind.FPR:
        divisor = w + r - v
        if (divisor < 1).any():
            raise ValueError("fpr needs at least one signal as its divisor")
        return v / divisor
    return v.astype(float)  # PFER


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


def aggregate(kind: MetricKind, counts: ConfusionCounts) -> MetricEstimate:
    """Average a metric over the trials of ``counts``, in trial order.

    Conditional metrics drop trials where they are undefined; if that
    leaves nothing, a ConditioningError names the metric instead of
    returning a silent NaN.  Each quotient is one IEEE division of two
    integers, as in scalar arithmetic, so the estimate is the one a
    trial-by-trial average gives, bit for bit.
    """
    kind = MetricKind(kind)
    if not counts.r.size:
        raise ValueError("no trials to aggregate")
    kept = _contributions(kind, counts)
    if not kept.size:
        raise ConditioningError(
            f"{kind.value} is undefined: its conditioning event occurred in no trial"
        )
    return mean_se(kept.tolist())


def bound_constants(
    kind: MetricKind, j: int, fewest: int, most: int, signal_count: int
) -> BoundConstants:
    """Constants tying a metric to the family-wise rates for a rule that
    rejects between ``fewest`` and ``most`` of ``j`` streams.

    The gap rule rejects m..m, the bracketed rule l..u and the intersection
    rule 0..J.  ``signal_count`` is |truth|, the FPR divisor of every
    trial.  ``c1_type2`` is ``c1_type1`` read on J - most..J - fewest and
    J - |truth|, so a type-2 kind takes its mirror's constants.  pfdr and
    pfnr admit constants only when 1 <= fewest and most <= J - 1, where
    both conditioning events are certain.  A metric without constants
    raises NoBoundConstants.
    """
    kind = MetricKind(kind)
    if j < 2:
        raise ValueError(f"need j >= 2, got {j}")
    if not 0 <= fewest <= most <= j:
        raise ValueError(
            f"need 0 <= fewest <= most <= {j} rejections, got {fewest}..{most}"
        )
    if MetricKind.PFDR in (kind, kind.mirror) and not (fewest >= 1 and most <= j - 1):
        raise NoBoundConstants(
            f"{kind.value} bounds need a rule that rejects at least 1 and at "
            f"most J - 1 streams; this one rejects {fewest}..{most} of J = {j}"
        )
    kind = _TYPE1_OF.get(kind, kind)
    if kind is MetricKind.FWE1:
        return BoundConstants(1.0, 1.0, 1.0)
    if kind in (MetricKind.FDR, MetricKind.PFDR):
        return BoundConstants(1.0, 1.0, 1.0 / j)
    if kind is MetricKind.PFER:
        return BoundConstants(float(most), float(j - fewest), 1.0)
    if kind is MetricKind.PCER:
        return BoundConstants(most / j, (j - fewest) / j, 1.0 / j)
    # FPR is V / |truth|.
    if not 1 <= signal_count <= j - 1:
        raise NoBoundConstants(
            f"fpr bounds need a signal count in 1..{j - 1}, got {signal_count}"
        )
    return BoundConstants(
        c1_type1=most / signal_count,
        c1_type2=(j - fewest) / (j - signal_count),
        c2=1.0 / max(signal_count, j - signal_count),
    )


def check_conditioning(
    kinds: Sequence[MetricKind], rule: str, j: int, fewest: int, most: int
) -> None:
    """Reject pfdr if a ``rule`` rejecting ``fewest``..``most`` of ``j``
    streams may reject none, and its mirror pfnr if it may accept none."""
    for kind, least, side in (
        (MetricKind.PFDR, fewest, "rejects"),
        (MetricKind.PFNR, j - most, "accepts"),
    ):
        if least < 1 and kind in kinds:
            raise ValueError(
                f"{kind.value} needs a rule that {side} at least one stream: the "
                f"{rule} rule rejects {fewest}..{most} of J = {j}, so the "
                "conditioning event can fail"
            )


def check_signals(kinds: Sequence[MetricKind], signal_count: int) -> None:
    """Reject fpr for a truth with no signal, which leaves it no divisor."""
    if MetricKind.FPR in kinds and signal_count < 1:
        raise ValueError("fpr needs a nonempty signal set as its divisor")
