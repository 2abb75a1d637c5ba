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
from dataclasses import dataclass

import numpy as np

from .engine import (
    ExperimentConfig,
    aggregate_counts,
    check_workers,
    derive_seed,
    payload,
    run_experiment,
    trial_rng,
)
from .metrics import ConfusionCounts, MetricEstimate, MetricKind
from .models import StreamProfile
from .rules import BhRule, GapRule, TopMRule, Walk, ranking
from .thresholds import ErrorBudget

_EVALUATION_TAG = 1


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


def grid_points(grid_step: float, threshold_cap: float) -> int:
    """Number of threshold grid points ``grid_step``, ``2 * grid_step``, ...
    at or below ``threshold_cap``; the tolerance keeps a cap that is a
    multiple of the step on the grid despite binary float noise."""
    return int(threshold_cap / grid_step + 1e-9)


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


def _probe_runner(measure, point_of):
    """Memoized ``measure`` over grid indices, recording probe order."""
    cache: dict[int, dict[MetricKind, MetricEstimate]] = {}
    order: list[int] = []

    def estimates_at(index: int) -> dict[MetricKind, MetricEstimate]:
        if index not in cache:
            cache[index] = measure(index)
            order.append(index)
        return cache[index]

    def probes() -> tuple[CalibrationProbe, ...]:
        return tuple(
            CalibrationProbe(point=point_of(i), estimates=cache[i]) for i in order
        )

    return estimates_at, probes


def _rerun(make_config, seed: int, workers: int):
    """Probe by running the experiment at the grid point from step 0."""
    return lambda index: run_experiment(
        make_config(index, seed), workers=workers
    ).metrics


class _GapTrial:
    """One search trial: its walk, and the rows where the gap set a new
    record, with the gap there and the number of signals among that row's
    top m.  Once the horizon ends the walk, a last record of gap ``inf``
    holds the count of the final row's top m."""

    __slots__ = ("walk", "gaps", "in_truth")

    def __init__(self, walk: Walk):
        self.walk = walk
        self.gaps: list[float] = []
        self.in_truth: list[int] = []


class _GapSearch:
    """The search trials of ``calibrate_gap_c``, each path sampled once.

    At threshold c a trial stops at the first row whose gap reaches c, and
    that row always sets a new record of the running maximum of the gap.
    So a probe answers from a trial's record when the best gap so far
    reaches c, and otherwise resumes the trial's walk until the gap reaches
    c or the horizon ends it.  The walk and the gap column are the ones
    ``run_sequential`` and ``GapRule`` use, so every comparison with c, and
    every rejected set (the top m of the stopping row, or of the final row
    at the horizon), is the one a rerun at c makes.
    """

    def __init__(self, config: ExperimentConfig):
        self.rule = config.rule  # only its gap column is used, at any threshold
        profile, truth, horizon = config.profile, config.truth, config.horizon
        self.signal = profile.signal_mask(truth)
        self.trials = [
            _GapTrial(Walk(profile, truth, horizon, trial_rng(config.master_seed, i)))
            for i in range(config.replications)
        ]

    def _in_truth(self, rows: np.ndarray) -> np.ndarray:
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
        trial.in_truth.extend(self._in_truth(path[rows]).tolist())
        if walk.taken == walk.horizon:
            trial.gaps.append(math.inf)
            trial.in_truth.append(int(self._in_truth(walk.lam[None])[0]))

    def _in_truth_at(self, trial: _GapTrial, threshold: float) -> int:
        while not (trial.gaps and trial.gaps[-1] >= threshold):
            self._extend(trial)
        return trial.in_truth[bisect_left(trial.gaps, threshold)]

    def estimates(self, config: ExperimentConfig) -> dict[MetricKind, MetricEstimate]:
        """What ``run_experiment(config).metrics`` reports, for a config
        that differs from the search's own only in the threshold."""
        m, j, signals = self.rule.num_signals, config.profile.j, len(config.truth)
        threshold = config.rule.threshold
        counts = [
            ConfusionCounts(v=m - h, w=signals - h, r=m, j=j)
            for h in (self._in_truth_at(t, threshold) for t in self.trials)
        ]
        return aggregate_counts(config, counts)


def _search(feasible, cap_index: int, grid: str, full_scan: bool, probes) -> int:
    try:
        return _bracket_min_feasible(feasible, cap_index, grid, full_scan)
    except ValueError as exc:
        raise CalibrationError(str(exc), probes=probes()) from exc


def _finish(
    make_config,
    chosen_index: int,
    chosen_point: float | int,
    seed: int,
    workers: int,
    replications: int,
    grid: str,
    probes,
) -> CalibrationResult:
    evaluation_seed = derive_seed(seed, _EVALUATION_TAG)
    achieved = run_experiment(
        make_config(chosen_index, evaluation_seed), workers=workers
    ).metrics
    return CalibrationResult(
        chosen=chosen_point,
        replications=replications,
        grid=grid,
        search_seed=seed,
        evaluation_seed=evaluation_seed,
        achieved=achieved,
        probes=probes(),
    )


def calibrate_gap_c(
    profile: StreamProfile,
    truth: frozenset[int],
    num_signals: int,
    budget: ErrorBudget,
    replications: int = 10_000,
    seed: int = 0,
    grid_step: float = 0.1,
    threshold_cap: float = 50.0,
    horizon: int | None = None,
    workers: int = 1,
    full_scan: bool = False,
) -> CalibrationResult:
    """Smallest grid threshold with estimated FDR <= alpha and FNR <= beta.

    The search runs in the calling process and samples each trial's path
    at most once (see ``_GapSearch``); its probe estimates equal, bit for
    bit, those of rerunning the experiment at every probe.  ``workers``
    drives only the evaluation run at the fresh seed.  On two cores this
    beats spreading every probe's rerun over a pool at 400 and at 10,000
    replications with 1, 2 or 4 workers; with many more cores than that,
    the one-core search may fall behind, which is not measured.
    """
    for name, value in (("grid_step", grid_step), ("threshold_cap", threshold_cap)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    kwargs = {} if horizon is None else {"horizon": horizon}

    def point(index: int) -> float:
        # Round away binary float noise so reported grid points are clean.
        return round(index * grid_step, 12)

    def make_config(index: int, master_seed: int) -> ExperimentConfig:
        return ExperimentConfig(
            profile=profile,
            truth=truth,
            rule=GapRule(num_signals=num_signals, threshold=point(index)),
            replications=replications,
            master_seed=master_seed,
            metrics=(MetricKind.FDR, MetricKind.FNR),
            **kwargs,
        )

    # Built at the first probe, after its config is checked, so invalid
    # arguments fail where and as a rerun would.
    search: _GapSearch | None = None

    def measure(index: int) -> dict[MetricKind, MetricEstimate]:
        nonlocal search
        config = make_config(index, seed)
        if search is None:
            check_workers(workers)
            search = _GapSearch(config)
        return search.estimates(config)

    estimates_at, probes = _probe_runner(measure, point)

    def feasible(index: int) -> bool:
        est = estimates_at(index)
        return (
            est[MetricKind.FDR].value <= budget.alpha
            and est[MetricKind.FNR].value <= budget.beta
        )

    cap_index = grid_points(grid_step, threshold_cap)
    grid = f"thresholds {grid_step:g}, {2 * grid_step:g}, ... capped at {threshold_cap:g}"
    chosen = _search(feasible, cap_index, grid, full_scan, probes)
    return _finish(
        make_config,
        chosen,
        point(chosen),
        seed,
        workers,
        replications,
        grid,
        probes,
    )


def calibrate_topm_n(
    profile: StreamProfile,
    truth: frozenset[int],
    num_signals: int,
    budget: ErrorBudget,
    replications: int = 10_000,
    seed: int = 0,
    sample_size_cap: int = 10_000,
    workers: int = 1,
    full_scan: bool = False,
) -> CalibrationResult:
    """Smallest sample size whose top-m decision meets both budget sides."""

    def make_config(index: int, master_seed: int) -> ExperimentConfig:
        return ExperimentConfig(
            profile=profile,
            truth=truth,
            rule=TopMRule(sample_size=index, num_signals=num_signals),
            replications=replications,
            master_seed=master_seed,
            metrics=(MetricKind.FDR, MetricKind.FNR),
        )

    estimates_at, probes = _probe_runner(_rerun(make_config, seed, workers), float)

    def feasible(index: int) -> bool:
        est = estimates_at(index)
        return (
            est[MetricKind.FDR].value <= budget.alpha
            and est[MetricKind.FNR].value <= budget.beta
        )

    grid = f"sample sizes 1..{sample_size_cap}"
    chosen = _search(feasible, sample_size_cap, grid, full_scan, probes)
    return _finish(
        make_config, chosen, chosen, seed, workers, replications, grid, probes
    )


def calibrate_bh_n(
    profile: StreamProfile,
    truth: frozenset[int],
    level: float,
    target_fnr: float,
    replications: int = 10_000,
    seed: int = 0,
    sample_size_cap: int = 10_000,
    workers: int = 1,
    full_scan: bool = False,
) -> CalibrationResult:
    """Sample size whose step-up FNR estimate is closest to a target.

    The estimated FNR decreases in the sample size, so the minimizer of
    |FNR - target| sits at the first size meeting the target or just below
    it; both are probed and ties go to the smaller size.
    """
    if not 0 < target_fnr < 1:
        raise ValueError(f"target_fnr must be in (0, 1), got {target_fnr}")

    def make_config(index: int, master_seed: int) -> ExperimentConfig:
        return ExperimentConfig(
            profile=profile,
            truth=truth,
            rule=BhRule(sample_size=index, level=level),
            replications=replications,
            master_seed=master_seed,
            metrics=(MetricKind.FDR, MetricKind.FNR),
        )

    estimates_at, probes = _probe_runner(_rerun(make_config, seed, workers), float)

    def fnr_at(index: int) -> float:
        return estimates_at(index)[MetricKind.FNR].value

    grid = f"sample sizes 1..{sample_size_cap}"
    crossing = _search(
        lambda i: fnr_at(i) <= target_fnr, sample_size_cap, grid, full_scan, probes
    )
    candidates = [c for c in (crossing - 1, crossing) if c >= 1]
    chosen = min(candidates, key=lambda c: (abs(fnr_at(c) - target_fnr), c))
    return _finish(
        make_config, chosen, chosen, seed, workers, replications, grid, probes
    )
