"""Empirical threshold calibration by Monte Carlo search.

Searches run over a fixed grid (a step grid for the gap threshold, unit
integers for sample sizes): bracket the feasible region by doubling, then
bisect down to the smallest feasible grid point.  Every probe replays the
trials of one common master seed, so probes share their sample paths and
the feasibility boundary is not blurred by probe-to-probe noise.  The
sample-size searches rerun the experiment at each probe.  The gap-threshold
search samples each trial's path at most once and holds its trials as
columns: a probe reads a trial's stopping row from the records of its gap,
or extends the path where an earlier probe left it, a batch of trials at a
time through ``engine.draw_batches``, each drawing its rows by counter from
its own stream.  It gets the estimates a rerun would report, bit for bit.
The reported achieved estimates come from a fresh evaluation seed, because
the estimates that guided the search are biased at the selected point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .engine import (
    _BATCH_VALUES,
    ExperimentConfig,
    aggregate_counts,
    derive_seed,
    draw_batches,
    payload,
    run_experiment,
    worker_pool,
)
from .metrics import ConfusionCounts, MetricEstimate, MetricKind
from .models import check_count, check_real, store_checked
from .rules import cumulate, next_block, ranking
from .thresholds import ErrorBudget

_EVALUATION_TAG = 1

# Values in one batch of the gap search (128 KiB of floats).  Freed batches
# of the engine's size (512 KiB) stay in the allocator's heap and raised
# peak RSS by about 0.5 MiB; at this size a J=100 search is ~8% slower.
_SEARCH_VALUES = _BATCH_VALUES // 4


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
        store_checked(self, check_real, "grid_step", "threshold_cap")
        store_checked(self, check_count, "sample_size_cap")
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


class _GapSearch:
    """The search trials of ``calibrate_gap_c`` as columns, each path
    sampled once.

    At threshold c a trial stops at the first row whose gap reaches c, and
    that row always sets a new record of the running maximum of the gap.
    So the search keeps, for every row where a trial's gap set a record,
    the trial, the gap and the number of signals among that row's top m,
    as record columns in trial order and, within a trial, row order.  A
    probe answers a trial from its records once its best gap reaches c,
    and otherwise extends its path until the gap reaches c or the horizon
    ends it; the horizon adds a last record of gap ``inf`` with the count
    of the final row's top m.

    Each trial's state is one entry of the columns ``lam`` (its running
    sums, (n, J)), ``taken`` (rows drawn, from which ``rules.next_block``
    gives its next block at J, as it does for ``run_sequential``) and
    ``best`` (its largest gap, or ``inf`` once the horizon ended it).  The
    trials a probe extends go a batch at a time: those with the same next
    block draw it through ``draw_batches``, each its rows by counter from
    its own stream, and the increments, ``cumulate``, the gap column and
    the record ranking run once per batch, each trial on its own.  So a
    trial's rows, every comparison with c, and every rejection (the top m
    of the stopping row, or of the final row at the horizon) are the ones
    a rerun at c makes.
    """

    def __init__(self, config: ExperimentConfig):
        self.config = config  # its rule's gap column serves any threshold
        n, j = config.replications, config.profile.j
        self.lam = np.zeros((n, j))
        self.taken = np.zeros(n, dtype=np.int64)
        self.best = np.full(n, -math.inf)
        self.trial = np.empty(0, dtype=np.int64)
        self.gap = np.empty(0)
        self.hits = np.empty(0, dtype=np.int64)

    def _hits(self, rows: np.ndarray) -> np.ndarray:
        """Signals among the top m of each row, ranked as ``order_view`` ranks."""
        top = ranking(rows)[:, : self.config.rule.num_signals]
        return np.count_nonzero(self.config.signal[top], axis=1)

    def _advance(self, trials: np.ndarray, path: np.ndarray) -> list[tuple]:
        """Take ``path``, the observations of the next rows of each of
        ``trials``, a (trials, steps, J) block that it overwrites, and return
        their new records as (trial, gap, hits) columns, the horizon's last."""
        config = self.config
        cumulate(config.profile.increments(path, out=path), self.lam[trials])
        self.lam[trials] = path[:, -1]
        self.taken[trials] += path.shape[1]
        gaps = config.rule.gap_column(path)
        best = self.best[trials]
        before = np.maximum.accumulate(
            np.concatenate((best[:, None], gaps[:, :-1]), axis=1), axis=1
        )
        at, row = np.nonzero(gaps > before)
        self.best[trials] = np.maximum(best, gaps.max(axis=1))
        records = [(trials[at], gaps[at, row], self._hits(path[at, row]))]
        ended = trials[self.taken[trials] == config.horizon]
        if ended.size:
            records.append(
                (ended, np.full(ended.size, math.inf), self._hits(self.lam[ended]))
            )
            self.best[ended] = math.inf
        return records

    def _extend(self, threshold: float) -> None:
        """Extend every trial whose best gap is below ``threshold`` until it
        is not, then merge the new records into the record columns."""
        horizon, j = self.config.horizon, self.config.profile.j
        records = []
        live = np.flatnonzero(self.best < threshold)
        while live.size:
            steps = next_block(self.taken[live], horizon, j)
            for k in np.unique(steps).tolist():
                group = live[steps == k]
                for trials, path in draw_batches(
                    self.config, group, self.taken[group], k, _SEARCH_VALUES
                ):
                    records += self._advance(trials, path)
            live = live[self.best[live] < threshold]
        if records:
            # A stable sort by trial keeps each trial's records in row order.
            trial, gap, hits = (
                np.concatenate([old, *new])
                for old, new in zip((self.trial, self.gap, self.hits), zip(*records))
            )
            order = np.argsort(trial, kind="stable")
            self.trial, self.gap, self.hits = trial[order], gap[order], hits[order]

    def estimates(self, config: ExperimentConfig) -> dict[MetricKind, MetricEstimate]:
        """What ``run_experiment(config).metrics`` reports, for a config
        that differs from the search's own only in the threshold."""
        threshold = config.rule.threshold
        self._extend(threshold)
        # Each trial's records rise, so its first record whose gap reaches
        # the threshold follows the ones below it.
        n = config.replications
        counts = np.bincount(self.trial, minlength=n)
        below = np.bincount(self.trial[self.gap < threshold], minlength=n)
        hits = self.hits[np.cumsum(counts) - counts + below]
        m, j, signals = config.rule.num_signals, config.profile.j, len(config.truth)
        return aggregate_counts(config, ConfusionCounts.of(hits, m, signals, j))


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
    replications with 1, 2 or 4 workers (``configs/gap.yaml`` at 10,000
    replications, search and evaluation: 0.63, 0.49 and 0.49 s against
    3.9, 2.3 and 2.4 s); with many more cores than that, the one-core
    search may fall behind, which is not measured.
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
