"""Monte Carlo experiment engine.

Every trial owns a counter-based generator keyed by (master seed, trial
index), so trial i's sample path is a pure function of the configuration —
independent of execution order, batching, and worker count.  Aggregation
uses compensated summation in trial order.  Reports are therefore
bit-identical across reruns and worker counts; only ``wall_time``, a
physical measurement, varies, and it is excluded from ``payload()``.
"""

from __future__ import annotations

import math
import multiprocessing
import signal
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, fields, is_dataclass, replace
from typing import get_args

import numpy as np
from scipy.special import ndtr

from .metrics import (
    MetricEstimate,
    MetricKind,
    ConfusionCounts,
    aggregate,
    check_distinct,
    confusion,
    mean_se,
)
from .models import GAUSSIAN_MEAN, StreamModel, StreamProfile
from .rules import (
    STOP_FIXED,
    STOP_HORIZON,
    BhRule,
    Decision,
    GapRule,
    Rule,
    TopMRule,
    bh_decide,
    run_sequential,
    top_m_decide,
)
from .thresholds import ErrorBudget

DEFAULT_HORIZON = 1_000_000
_SEED_SPAN = 2**64


def _check_seed(master_seed: int) -> int:
    if not 0 <= int(master_seed) < _SEED_SPAN:
        raise ValueError(f"master_seed must be a 64-bit integer, got {master_seed!r}")
    return int(master_seed)


def trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """Counter-based generator for one trial.

    The 128-bit key is master_seed in the high word and the trial index in
    the low word, so distinct trials of one experiment — and trials of
    experiments with distinct master seeds — never share a stream.
    """
    master_seed = _check_seed(master_seed)
    if not 0 <= int(trial_index) < _SEED_SPAN:
        raise ValueError(f"trial_index must be a 64-bit integer, got {trial_index!r}")
    return np.random.Generator(
        np.random.Philox(key=(master_seed << 64) + int(trial_index))
    )


def derive_seed(master_seed: int, *path: int) -> int:
    """Deterministically derive an unrelated 64-bit seed for a sub-run."""
    ss = np.random.SeedSequence(
        entropy=_check_seed(master_seed), spawn_key=tuple(int(p) for p in path)
    )
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that determines an experiment's results.

    Worker count is deliberately not part of the configuration: it only
    schedules the work and must not affect any reported number.

    Construction validates the 1-based labels of ``truth`` once and builds
    ``signal``, the read-only (J,) boolean mask every trial reads; it is not
    a field, so eq, hash and repr do not see it.
    """

    profile: StreamProfile
    truth: frozenset[int]
    rule: Rule
    replications: int
    master_seed: int
    horizon: int = DEFAULT_HORIZON
    metrics: tuple[MetricKind, ...] = (MetricKind.FDR, MetricKind.FNR)

    def __post_init__(self) -> None:
        object.__setattr__(self, "truth", self.profile.validate_signal_set(self.truth))
        object.__setattr__(self, "signal", self.profile.signal_mask(self.truth))
        object.__setattr__(
            self, "metrics", tuple(MetricKind(k) for k in self.metrics)
        )
        check_distinct(self.metrics)
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        _check_seed(self.master_seed)
        self.rule.check(self.profile, self.metrics)
        if MetricKind.FPR in self.metrics and not self.truth:
            raise ValueError("fpr needs a nonempty signal set as its divisor")

    def __reduce__(self):
        # Pickles carry only the fields; the receiver rebuilds the mask.
        return (type(self), tuple(getattr(self, f.name) for f in fields(self)))


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one trial."""

    stopping_time: int
    counts: ConfusionCounts
    stopped_by: str

    @property
    def horizon_hit(self) -> bool:
        return self.stopped_by == STOP_HORIZON


def fixed_sample_pvalues(
    profile: StreamProfile, totals: np.ndarray, n: int
) -> np.ndarray:
    """Vectorized one-sided p-values for all streams' observation sums."""
    z = (np.asarray(totals, dtype=float) - n * profile.null) / math.sqrt(n)
    return ndtr(np.where(profile.alt > profile.null, -z, z))


def _run_fixed(
    rule: BhRule | TopMRule,
    profile: StreamProfile,
    signal: np.ndarray,
    rng: np.random.Generator,
) -> Decision:
    n = rule.sample_size
    x = profile.sample_block(signal, n, rng)
    pvalues = fixed_sample_pvalues(profile, x.sum(axis=0), n)
    if isinstance(rule, BhRule):
        rejected = bh_decide(pvalues, rule.level)
    else:
        rejected = top_m_decide(pvalues, rule.num_signals)
    return Decision(stopping_time=n, rejected=rejected, stopped_by=STOP_FIXED)


def run_trial(config: ExperimentConfig, trial_index: int) -> TrialRecord:
    """Run one trial on its own generator substream."""
    rng = trial_rng(config.master_seed, trial_index)
    if isinstance(config.rule, (BhRule, TopMRule)):
        decision = _run_fixed(config.rule, config.profile, config.signal, rng)
    else:
        decision = run_sequential(
            config.rule, config.profile, config.signal, config.horizon, rng
        )
    return TrialRecord(
        stopping_time=decision.stopping_time,
        counts=confusion(decision.rejected, config.signal),
        stopped_by=decision.stopped_by,
    )


# A worker's copy of its pool's abort event, set by ``_start_worker``; the
# calling process, which runs trials without a pool, has none.
_abort = None


def _run_range(config: ExperimentConfig, start: int, stop: int) -> list[TrialRecord]:
    records = []
    for i in range(start, stop):
        if _abort is not None and _abort.is_set():
            break  # the pool's owner is raising and never reads this chunk
        records.append(run_trial(config, i))
    return records


def _start_worker(abort) -> None:
    # Workers leave a Ctrl-C to the parent, which owns the pool, and stop
    # between trials once it sets ``abort``.
    global _abort
    _abort = abort
    signal.signal(signal.SIGINT, signal.SIG_IGN)


@contextmanager
def worker_pool(workers: int):
    """One process pool for every experiment of a call, or ``None`` at one
    worker, which runs the trials in the calling process.

    On any exception, including an interrupt, the pool sets its abort event,
    which ends the chunks already handed to a worker after their current
    trial, and cancels the rest, so that no worker outlives the call.
    """
    check_workers(workers)
    if workers == 1:
        yield None
        return
    abort = multiprocessing.Event()
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_start_worker, initargs=(abort,)
    ) as pool:
        try:
            yield pool
        except BaseException:
            abort.set()
            pool.shutdown(cancel_futures=True)
            raise


def _run_all(
    config: ExperimentConfig, workers: int, pool: ProcessPoolExecutor | None
) -> list[TrialRecord]:
    n = config.replications
    if pool is None:
        return _run_range(config, 0, n)
    # Contiguous index ranges, gathered in submission order, keep the
    # records in ascending trial order without a sort.
    chunks = min(n, workers * 4)
    bounds = [round(k * n / chunks) for k in range(chunks + 1)]
    futures = [
        pool.submit(_run_range, config, lo, hi)
        for lo, hi in zip(bounds[:-1], bounds[1:])
        if hi > lo
    ]
    records: list[TrialRecord] = []
    for future in futures:
        records.extend(future.result())
    return records


@dataclass(frozen=True)
class ExperimentReport:
    """Results of one experiment.

    ``payload()`` returns the deterministic content (everything except
    ``wall_time``) as plain dictionaries; two runs of the same
    configuration must produce equal payloads regardless of worker count.
    """

    config: ExperimentConfig
    mean_stopping_time: MetricEstimate
    metrics: dict[MetricKind, MetricEstimate]
    horizon_hits: int
    wall_time: float

    def payload(self) -> dict:
        return payload(self)


def check_workers(workers: int) -> None:
    """Reject a worker count below 1."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")


def aggregate_counts(
    config: ExperimentConfig, counts: list[ConfusionCounts]
) -> dict[MetricKind, MetricEstimate]:
    """The config's metric estimates over per-trial counts in trial order."""
    return {kind: aggregate(kind, counts) for kind in config.metrics}


def run_experiment(
    config: ExperimentConfig,
    workers: int = 1,
    pool: ProcessPoolExecutor | None = None,
) -> ExperimentReport:
    """Run all trials and aggregate in trial order.

    The trials run in ``workers * 4`` chunks on ``pool`` if one is given
    (a call that runs several experiments shares one ``worker_pool``), and
    otherwise on a ``worker_pool(workers)`` of this run's own.
    """
    check_workers(workers)
    started = time.perf_counter()
    with nullcontext(pool) if pool is not None else worker_pool(workers) as pool:
        records = _run_all(config, workers, pool)
    return ExperimentReport(
        config=config,
        mean_stopping_time=mean_se([float(r.stopping_time) for r in records]),
        metrics=aggregate_counts(config, [r.counts for r in records]),
        horizon_hits=sum(r.horizon_hit for r in records),
        wall_time=time.perf_counter() - started,
    )


# --- serialization (every report's payload() and the CLI's JSON) ---


def rule_to_dict(rule: Rule) -> dict:
    return {"type": rule.name, **asdict(rule)}


def profile_to_dict(profile: StreamProfile) -> dict:
    first = profile.models[0]
    if all(model == first for model in profile.models):
        return {
            "family": first.family,
            "null": first.null,
            "alt": first.alt,
            "count": profile.j,
        }
    return {
        "streams": [
            {"family": m.family, "null": m.null, "alt": m.alt}
            for m in profile.models
        ]
    }


def config_to_dict(config: ExperimentConfig) -> dict:
    return {
        "streams": profile_to_dict(config.profile),
        "truth": sorted(config.truth),
        "rule": rule_to_dict(config.rule),
        "replications": config.replications,
        "master_seed": config.master_seed,
        "horizon": config.horizon,
        "metrics": [kind.value for kind in config.metrics],
    }


# Values written in their config-file form rather than field by field.
_CONFIG_FORMS = {
    ExperimentConfig: config_to_dict,
    **dict.fromkeys(get_args(Rule), rule_to_dict),
}


def payload(value):
    """The JSON-ready form of a report, or of any value inside one.

    Dataclasses become dicts in field order, without ``wall_time``; configs
    and rules take their config-file form; metric kinds become their names
    and tuples become lists.
    """
    to_dict = _CONFIG_FORMS.get(type(value))
    if to_dict is not None:
        return to_dict(value)
    if is_dataclass(value):
        return {
            f.name: payload(getattr(value, f.name))
            for f in fields(value)
            if f.name != "wall_time"
        }
    if isinstance(value, dict):
        return {payload(key): payload(item) for key, item in value.items()}
    if isinstance(value, MetricKind):
        return value.value
    if isinstance(value, (tuple, list)):
        return [payload(item) for item in value]
    return value


# --- asymptotic sweep diagnostic ---


@dataclass(frozen=True)
class SweepRow:
    """One budget point of the optimality diagnostic."""

    alpha: float
    beta: float
    rule: Rule
    mean_stopping_time: MetricEstimate
    kappa: float
    ratio: float
    horizon_hits: int


@dataclass(frozen=True)
class SweepReport:
    base: ExperimentConfig
    control: MetricKind
    rows: tuple[SweepRow, ...]

    def payload(self) -> dict:
        return payload(self)


def asymptotic_sweep(
    base: ExperimentConfig,
    budgets: list[ErrorBudget],
    workers: int = 1,
    control: MetricKind = MetricKind.FDR,
) -> SweepReport:
    """Expected stopping time against its first-order benchmark.

    Each budget point reruns the base experiment at that budget's formula
    thresholds with the same master seed (common random numbers across
    points, which sharpens the comparison), and reports the ratio of the
    estimated expected stopping time to the benchmark.  The ratio should
    decrease toward 1 as the budget shrinks.  All points run on one pool
    of ``workers`` processes.
    """
    if not budgets:
        raise ValueError("need at least one budget point")
    if not hasattr(base.rule, "at_budget"):
        raise ValueError(
            "the sweep needs a sequential rule with formula thresholds; got "
            f"{base.rule.name!r}"
        )
    profile, truth = base.profile, base.truth
    # Every point's rule, config and benchmark first, so an invalid point
    # fails before any experiment runs.
    points = []
    for budget in budgets:
        rule = base.rule.at_budget(budget, profile.j, truth, control)
        kappa = rule.kappa(budget, profile, truth)
        points.append((budget, replace(base, rule=rule), kappa))
    rows = []
    with worker_pool(workers) as pool:
        for budget, config, kappa in points:
            report = run_experiment(config, workers=workers, pool=pool)
            rows.append(
                SweepRow(
                    alpha=budget.alpha,
                    beta=budget.beta,
                    rule=config.rule,
                    mean_stopping_time=report.mean_stopping_time,
                    kappa=kappa,
                    ratio=report.mean_stopping_time.value / kappa,
                    horizon_hits=report.horizon_hits,
                )
            )
    return SweepReport(base=base, control=control, rows=tuple(rows))


# --- bundled benchmark studies ---


@dataclass(frozen=True)
class BenchmarkSpec:
    """Parameters of one bundled benchmark study.

    Homogeneous gaussian-mean streams; per signal count the study fixes the
    gap-rule threshold and the two baselines' sample sizes (chosen so the
    baselines' achieved error rates line up with the gap rule's at the same
    nominal level).
    """

    j: int
    model: StreamModel
    level: float
    rows: dict[int, tuple[float, int, int]]  # m -> (threshold, bh n, top-m n)


BENCHMARKS: dict[str, BenchmarkSpec] = {
    "table1": BenchmarkSpec(
        j=10,
        model=StreamModel(GAUSSIAN_MEAN, null=0.0, alt=0.5),
        level=0.05,
        rows={
            1: (3.5, 70, 50),
            2: (2.9, 60, 46),
            3: (2.6, 59, 45),
            4: (2.3, 54, 40),
            5: (2.1, 52, 37),
            6: (2.3, 54, 40),
            7: (2.5, 56, 43),
            8: (2.8, 60, 45),
            9: (3.4, 65, 50),
        },
    ),
    "table2": BenchmarkSpec(
        j=100,
        model=StreamModel(GAUSSIAN_MEAN, null=0.0, alt=0.5),
        level=0.05,
        rows={
            1: (3.9, 90, 77),
            10: (1.9, 70, 68),
            20: (1.3, 65, 62),
            30: (1.0, 60, 57),
            40: (0.8, 56, 50),
            50: (0.7, 53, 47),
            60: (0.8, 56, 50),
            70: (1.0, 60, 57),
            80: (1.3, 64, 63),
            90: (1.9, 72, 71),
            99: (3.9, 90, 79),
        },
    ),
}


@dataclass(frozen=True)
class BenchmarkRow:
    """One signal-count row of a benchmark study.

    Savings are 1 - ET / n against each baseline's sample size.
    """

    num_signals: int
    threshold: float
    gap_et: MetricEstimate
    gap_fdr: MetricEstimate
    gap_fnr: MetricEstimate
    bh_sample_size: int
    bh_savings: float
    bh_fdr: MetricEstimate
    bh_fnr: MetricEstimate
    topm_sample_size: int
    topm_savings: float
    topm_fdr: MetricEstimate
    topm_fnr: MetricEstimate


@dataclass(frozen=True)
class BenchmarkReport:
    which: str
    j: int
    replications: int
    master_seed: int
    rows: tuple[BenchmarkRow, ...]

    def payload(self) -> dict:
        return payload(self)


def study_rows(which: str, rows: list[int] | None = None) -> list[int]:
    """The signal counts that ``reproduce_table`` runs: every row of the
    study, or ``rows`` in the order given, each a row of the study, once."""
    if which not in BENCHMARKS:
        raise ValueError(
            f"unknown benchmark {which!r}; expected one of {sorted(BENCHMARKS)}"
        )
    available = BENCHMARKS[which].rows
    if rows is None:
        return list(available)
    selected = [int(m) for m in rows]
    missing = sorted({m for m in selected if m not in available})
    repeated = sorted({m for m in selected if selected.count(m) > 1})
    if missing or repeated:
        problem = f"no such rows {missing}" if missing else f"repeated {repeated}"
        raise ValueError(f"{problem}; {which} has rows {sorted(available)}")
    return selected


def reproduce_table(
    which: str,
    rows: list[int] | None = None,
    replications: int = 10_000,
    master_seed: int = 20_260_816,
    workers: int = 1,
) -> BenchmarkReport:
    """Rerun a bundled benchmark study.

    ``rows`` selects signal counts (default: all rows of the study; an
    explicitly empty list yields a header-only report).  Each row runs the
    gap rule, at the default horizon, plus both fixed-sample baselines on
    seeds derived from the master seed and the row's parameters.  All
    rows run on one pool of ``workers`` processes.
    """
    selected = study_rows(which, rows)
    spec = BENCHMARKS[which]
    profile = StreamProfile.homogeneous(spec.model, spec.j)
    out = []
    with worker_pool(workers) as pool:
        for m in selected:
            threshold, bh_n, topm_n = spec.rows[m]
            truth = frozenset(range(1, m + 1))
            runs = {}
            for sub, rule in enumerate(
                (
                    GapRule(num_signals=m, threshold=threshold),
                    BhRule(sample_size=bh_n, level=spec.level),
                    TopMRule(sample_size=topm_n, num_signals=m),
                )
            ):
                config = ExperimentConfig(
                    profile=profile,
                    truth=truth,
                    rule=rule,
                    replications=replications,
                    master_seed=derive_seed(master_seed, m, sub),
                    metrics=(MetricKind.FDR, MetricKind.FNR),
                )
                runs[sub] = run_experiment(config, workers=workers, pool=pool)
            gap_et = runs[0].mean_stopping_time.value
            out.append(
                BenchmarkRow(
                    num_signals=m,
                    threshold=threshold,
                    gap_et=runs[0].mean_stopping_time,
                    gap_fdr=runs[0].metrics[MetricKind.FDR],
                    gap_fnr=runs[0].metrics[MetricKind.FNR],
                    bh_sample_size=bh_n,
                    bh_savings=1.0 - gap_et / bh_n,
                    bh_fdr=runs[1].metrics[MetricKind.FDR],
                    bh_fnr=runs[1].metrics[MetricKind.FNR],
                    topm_sample_size=topm_n,
                    topm_savings=1.0 - gap_et / topm_n,
                    topm_fdr=runs[2].metrics[MetricKind.FDR],
                    topm_fnr=runs[2].metrics[MetricKind.FNR],
                )
            )
    return BenchmarkReport(
        which=which,
        j=spec.j,
        replications=replications,
        master_seed=master_seed,
        rows=tuple(out),
    )
