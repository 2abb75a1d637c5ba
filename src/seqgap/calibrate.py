"""Empirical threshold calibration by Monte Carlo search.

Searches run over a fixed grid (a step grid for the gap threshold, unit
integers for sample sizes): bracket the feasible region by doubling, then
bisect down to the smallest feasible grid point.  Every probe replays the
trials of one common master seed, so probes share their sample paths and
the feasibility boundary is not blurred by probe-to-probe noise.  The
sample-size searches rerun the experiment at each probe.  The gap-threshold
search samples each trial's path at most once: a probe reads a trial's
stopping row from the record of its gap, or resumes the path where an
earlier probe left it, and gets the estimates a rerun would report, bit for
bit.  The reported achieved estimates come from a fresh evaluation seed,
because the estimates that guided the search are biased at the selected
point.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, replace

import numpy as np

from .engine import (
    ExperimentConfig,
    aggregate_counts,
    derive_seed,
    payload,
    run_experiment,
    trial_rng,
    worker_pool,
)
from .metrics import ConfusionCounts, MetricEstimate, MetricKind
from .rules import Walk, ranking
from .thresholds import ErrorBudget

_EVALUATION_TAG = 1


@dataclass(frozen=True)
class CalibrationSettings:
    """The search grids and how to walk them.

    The gap search probes thresholds ``grid_step``, ``2 * grid_step``, ...
    up to ``threshold_cap``; the sample-size searches probe 1 ..
    ``sample_size_cap``.  ``full_scan`` probes every grid point up to the
    first feasible one instead of bracketing.  Construction rejects a grid
    with no positive threshold, so every search starts from valid settings.
    """

    grid_step: float = 0.1
    threshold_cap: float = 50.0
    sample_size_cap: int = 10_000
    full_scan: bool = False

    def __post_init__(self) -> None:
        for name in ("grid_step", "threshold_cap"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        point, grid, count = self.grid("threshold")
        if point(1) <= 0:
            raise ValueError(
                f"grid_step ({self.grid_step:g}) puts the first grid point at 0.0: "
                "threshold must be positive, got 0.0"
            )
        if count < 1:
            raise ValueError(
                f"threshold_cap ({self.threshold_cap:g}) is below grid_step "
                f"({self.grid_step:g}): search cap leaves no grid points for {grid}"
            )
        if self.sample_size_cap < 1:
            raise ValueError(
                f"sample_size_cap must be >= 1, got {self.sample_size_cap}"
            )

    def grid(self, field: str):
        """The grid of the rule field ``field`` ("threshold" or
        "sample_size"): its point at each index from 1, its description, and
        its number of points.  Thresholds are rounded clear of binary float
        noise, and the tolerance keeps a cap that is a multiple of the step
        on the grid."""
        if field == "threshold":
            step, cap = self.grid_step, self.threshold_cap
            grid = f"thresholds {step:g}, {2 * step:g}, ... capped at {cap:g}"
            return lambda i: round(i * step, 12), grid, int(cap / step + 1e-9)
        cap = self.sample_size_cap
        return int, f"sample sizes 1..{cap}", cap


class CalibrationError(ValueError):
    """The search ran out of grid; carries the probe trace for reporting."""

    def __init__(self, message: str, probes=()):
        super().__init__(message)
        self.probes: tuple[CalibrationProbe, ...] = tuple(probes)


@dataclass(frozen=True)
class CalibrationProbe:
    """One probed grid point and the estimates that judged it."""

    point: float
    estimates: dict[MetricKind, MetricEstimate]


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of a calibration search.

    ``chosen`` is the selected grid point (a threshold or a sample size);
    ``achieved`` holds its estimates under the fresh evaluation seed.
    ``probes`` records every grid point visited, in probe order.
    """

    chosen: float | int
    replications: int
    grid: str
    search_seed: int
    evaluation_seed: int
    achieved: dict[MetricKind, MetricEstimate]
    probes: tuple[CalibrationProbe, ...]

    def payload(self) -> dict:
        return payload(self)


def _bracket_min_feasible(
    feasible, cap_index: int, describe: str, full_scan: bool
) -> int:
    """Smallest grid index (from 1) where ``feasible`` holds.

    Doubling bracket followed by bisection; ``full_scan`` forces the
    exhaustive left-to-right scan instead (for verification, or when the
    feasible set is suspected of being non-monotone).
    """
    if cap_index < 1:
        raise ValueError(f"search cap leaves no grid points for {describe}")
    if full_scan:
        for i in range(1, cap_index + 1):
            if feasible(i):
                return i
        raise ValueError(f"no feasible point up to the cap for {describe}")
    lo, i = 0, 1
    while not feasible(i):
        if i >= cap_index:
            raise ValueError(f"no feasible point up to the cap for {describe}")
        lo, i = i, min(2 * i, cap_index)
    hi = i
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


class _GapTrial:
    """One search trial: its walk, and the rows where the gap set a new
    record, with the gap there and the number of signals among that row's
    top m.  Once the horizon ends the walk, a last record of gap ``inf``
    holds the count of the final row's top m."""

    __slots__ = ("walk", "gaps", "hits")

    def __init__(self, walk: Walk):
        self.walk = walk
        self.gaps: list[float] = []
        self.hits: list[int] = []


class _GapSearch:
    """The search trials of ``calibrate_gap_c``, each path sampled once.

    At threshold c a trial stops at the first row whose gap reaches c, and
    that row always sets a new record of the running maximum of the gap.
    So a probe answers from a trial's record when the best gap so far
    reaches c, and otherwise resumes the trial's walk until the gap reaches
    c or the horizon ends it.  The walk and the gap column are the ones
    ``run_sequential`` and ``GapRule`` use, so every comparison with c, and
    every rejection (the top m of the stopping row, or of the final row
    at the horizon), is the one a rerun at c makes.
    """

    def __init__(self, config: ExperimentConfig):
        self.rule = config.rule  # only its gap column is used, at any threshold
        profile, signal, horizon = config.profile, config.signal, config.horizon
        self.signal = signal
        self.trials = [
            _GapTrial(Walk(profile, signal, horizon, trial_rng(config.master_seed, i)))
            for i in range(config.replications)
        ]

    def _hits(self, rows: np.ndarray) -> np.ndarray:
        """Signals among the top m of each row, ranked as ``order_view`` ranks."""
        top = ranking(rows)[:, : self.rule.num_signals]
        return np.count_nonzero(self.signal[top], axis=1)

    def _extend(self, trial: _GapTrial) -> None:
        walk = trial.walk
        path = walk.next_block()
        gaps = self.rule.gap_column(path)
        best = trial.gaps[-1] if trial.gaps else -math.inf
        before = np.maximum.accumulate(np.concatenate(([best], gaps[:-1])))
        rows = np.nonzero(gaps > before)[0]
        trial.gaps.extend(gaps[rows].tolist())
        trial.hits.extend(self._hits(path[rows]).tolist())
        if walk.taken == walk.horizon:
            trial.gaps.append(math.inf)
            trial.hits.append(int(self._hits(walk.lam[None])[0]))

    def _hits_at(self, trial: _GapTrial, threshold: float) -> int:
        while not (trial.gaps and trial.gaps[-1] >= threshold):
            self._extend(trial)
        return trial.hits[bisect_left(trial.gaps, threshold)]

    def estimates(self, config: ExperimentConfig) -> dict[MetricKind, MetricEstimate]:
        """What ``run_experiment(config).metrics`` reports, for a config
        that differs from the search's own only in the threshold."""
        m, j, signals = self.rule.num_signals, config.profile.j, len(config.truth)
        threshold = config.rule.threshold
        counts = [
            ConfusionCounts.of(self._hits_at(t, threshold), m, signals, j)
            for t in self.trials
        ]
        return aggregate_counts(config, counts)


def _within(budget: ErrorBudget):
    """Feasibility at a budget: estimated FDR <= alpha and FNR <= beta."""
    return lambda est: (
        est[MetricKind.FDR].value <= budget.alpha
        and est[MetricKind.FNR].value <= budget.beta
    )


def _calibrate(
    config: ExperimentConfig,
    settings: CalibrationSettings,
    kind: str,
    accept,
    workers: int,
    measure=None,
    choose=None,
) -> CalibrationResult:
    """Search the grid of the config's rule, which must be of type ``kind``,
    for the first index whose estimates ``accept``, and evaluate the chosen
    index at a fresh seed.

    Each probe is ``config`` with the rule's threshold (gap) or sample size
    at the grid point, FDR and FNR as its metrics, and the search seed
    (``config.master_seed``) or the evaluation seed; probes record their
    grid point as a float.  ``measure`` maps a probe's config to its
    estimates (by default, a rerun of the experiment); ``choose`` maps the
    first accepted index and the memoized probe to the chosen index (by
    default, that index).  Every rerun, the probes' and the evaluation's,
    runs on one pool of ``workers`` processes.
    """
    if config.rule.name != kind:
        raise ValueError(f"this search needs a {kind} rule, got {config.rule.name!r}")
    field = "threshold" if kind == "gap" else "sample_size"
    point, grid, cap_index = settings.grid(field)
    seed = config.master_seed

    def config_at(index: int, master_seed: int) -> ExperimentConfig:
        return replace(
            config,
            rule=replace(config.rule, **{field: point(index)}),
            master_seed=master_seed,
            metrics=(MetricKind.FDR, MetricKind.FNR),
        )

    def rerun(config: ExperimentConfig) -> dict[MetricKind, MetricEstimate]:
        # Called only inside the pool's block below.
        return run_experiment(config, workers=workers, pool=pool).metrics

    measure = measure or rerun
    cache: dict[int, dict[MetricKind, MetricEstimate]] = {}  # in probe order

    def estimates_at(index: int) -> dict[MetricKind, MetricEstimate]:
        if index not in cache:
            cache[index] = measure(config_at(index, seed))
        return cache[index]

    def probes() -> tuple[CalibrationProbe, ...]:
        return tuple(
            CalibrationProbe(point=float(point(i)), estimates=est)
            for i, est in cache.items()
        )

    with worker_pool(workers) as pool:
        try:
            first = _bracket_min_feasible(
                lambda i: accept(estimates_at(i)), cap_index, grid, settings.full_scan
            )
        except ValueError as exc:
            raise CalibrationError(str(exc), probes=probes()) from exc
        chosen = first if choose is None else choose(first, estimates_at)
        evaluation_seed = derive_seed(seed, _EVALUATION_TAG)
        achieved = rerun(config_at(chosen, evaluation_seed))
    return CalibrationResult(
        chosen=point(chosen),
        replications=config.replications,
        grid=grid,
        search_seed=seed,
        evaluation_seed=evaluation_seed,
        achieved=achieved,
        probes=probes(),
    )


def calibrate_gap_c(
    config: ExperimentConfig,
    settings: CalibrationSettings,
    budget: ErrorBudget,
    workers: int = 1,
) -> CalibrationResult:
    """Smallest grid threshold of the config's gap rule with estimated
    FDR <= alpha and FNR <= beta.

    The search runs in the calling process and samples each trial's path
    at most once (see ``_GapSearch``); its probe estimates equal, bit for
    bit, those of rerunning the experiment at every probe.  ``workers``
    drives only the evaluation run at the fresh seed, on the one pool the
    search opens (none at one worker).  On two cores this
    beats spreading every probe's rerun over a pool at 400 and at 10,000
    replications with 1, 2 or 4 workers; with many more cores than that,
    the one-core search may fall behind, which is not measured.
    """
    measure = _GapSearch(config).estimates
    return _calibrate(config, settings, "gap", _within(budget), workers, measure)


def calibrate_topm_n(
    config: ExperimentConfig,
    settings: CalibrationSettings,
    budget: ErrorBudget,
    workers: int = 1,
) -> CalibrationResult:
    """Smallest sample size whose top-m decision meets both budget sides."""
    return _calibrate(config, settings, "top-m", _within(budget), workers)


def calibrate_bh_n(
    config: ExperimentConfig,
    settings: CalibrationSettings,
    budget: ErrorBudget,
    workers: int = 1,
) -> CalibrationResult:
    """Sample size whose step-up FNR estimate is closest to ``budget.beta``;
    the config's rule supplies the level, which pins FDR.

    The estimated FNR decreases in the sample size, so the minimizer of
    |FNR - beta| sits at the first size meeting beta or just below it; both
    are probed and ties go to the smaller size.
    """
    target = budget.beta

    def fnr(est: dict[MetricKind, MetricEstimate]) -> float:
        return est[MetricKind.FNR].value

    def closest(crossing: int, estimates_at) -> int:
        candidates = [c for c in (crossing - 1, crossing) if c >= 1]
        return min(candidates, key=lambda c: (abs(fnr(estimates_at(c)) - target), c))

    def accept(est: dict[MetricKind, MetricEstimate]) -> bool:
        return fnr(est) <= target

    return _calibrate(config, settings, "bh", accept, workers, choose=closest)
