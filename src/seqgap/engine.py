"""Monte Carlo experiment engine.

Every trial draws from a counter-based generator keyed by (master seed,
trial index), so trial i's sample path is a pure function of the
configuration — independent of execution order, batching, and worker count.
Each thread that runs trials holds one Philox generator and rekeys it for
every trial it runs, with the same draws as a fresh generator of that
key.  Sequential trials run one at a time; the rules of one run, such as
a sweep's budget points, draw each trial's path once and every rule
scans it.  Fixed-sample trials (bh,
top-m) draw their sufficient statistic, each stream's total after n
steps, exactly in law from one uniform per stream, a batch of trials at a
time through ``draw_batches``, the one batched draw, which the gap search
also uses: each trial draws its own slice of one buffer, and the inverse
CDF, the totals, the p-values and the decisions run once per batch, each
trial on its own, so a trial's outcome is the one it gets alone.  A run
of trials keeps its outcomes as columns (stopping times, horizon hits and
confusion counts), counted once per batch of rejection masks.  Aggregation
uses compensated summation in trial order.
Reports are therefore bit-identical across reruns and worker counts; only
``wall_time``, a physical measurement, varies, and it is excluded from
``payload()``.
"""

from __future__ import annotations

import math
import multiprocessing
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, fields, is_dataclass, replace
from typing import Sequence, get_args

import numpy as np
from scipy.special import ndtr

from .metrics import (
    ConfusionCounts,
    MetricEstimate,
    MetricKind,
    aggregate,
    check_distinct,
    check_signals,
    confusion,
    mean_se,
)
from .models import (
    GAUSSIAN_MEAN,
    StreamModel,
    StreamProfile,
    check_count,
    check_int,
    check_word,
    store_checked,
)
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
    run_shared,
    top_m_decide,
)
from .thresholds import ErrorBudget

DEFAULT_HORIZON = 1_000_000


def trial_rng(
    master_seed: int,
    trial_index: int,
    rng: np.random.Generator | None = None,
    start: int = 0,
) -> np.random.Generator:
    """Counter-based generator for one trial, positioned at value ``start``
    of its stream.

    The 128-bit key is master_seed in the high word and the trial index in
    the low word, so distinct trials of one experiment — and trials of
    experiments with distinct master seeds — never share a stream.

    It rekeys ``rng``, a Philox generator, in place and returns it, or
    without ``rng`` a new one: the key, a zero counter, an empty buffer
    and no held-back 32-bit half are the whole state of a new generator
    with this key, so the draws are the same bit for bit, without the OS
    entropy a new keyed ``Philox`` reads and never uses.  Each thread that
    runs trials rekeys one generator for every trial.

    Philox draws its values four at a time, stepping its counter first, so
    value k of the stream is word k mod 4 of counter k div 4 + 1.  A
    ``start`` sets the counter to start div 4 and discards start mod 4
    values, and the draws are values ``start, start + 1, ...`` of the
    stream: a trial's rows t.. of J values are ``start = t * J``, drawn
    without a generator that drew the rows before them.
    """
    master_seed = check_word(master_seed, "master_seed")
    trial_index = check_word(trial_index, "trial_index")
    start = check_word(start, "start")
    if rng is None:
        rng = np.random.Generator(np.random.Philox(0))
    # The setter reads the words one by one, so tuples do, without three
    # new arrays per trial.  A start below 2**64 fills the counter's low
    # word alone.
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": (start >> 2, 0, 0, 0),
            "key": (trial_index, master_seed),
        },
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,  # empty, so the first draw fills it from the counter
        "has_uint32": 0,
        "uinteger": 0,
    }
    if start & 3:
        rng.bit_generator.random_raw(start & 3)
    return rng


def derive_seed(master_seed: int, *path: int) -> int:
    """Deterministically derive an unrelated 64-bit seed for a sub-run."""
    ss = np.random.SeedSequence(
        entropy=check_word(master_seed, "master_seed"),
        spawn_key=tuple(check_word(p, "path") for p in path),
    )
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that determines an experiment's results.

    Worker count is deliberately not part of the configuration: it only
    schedules the work and must not affect any reported number.

    Construction validates the 1-based labels of ``truth`` once and builds
    the read-only (J,) columns every trial reads, outside the fields that
    eq, hash and repr see: the ``signal`` mask and ``means``, each stream's
    mean under the truth (``alt`` at a signal, ``null`` elsewhere).
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
        means = np.where(self.signal, self.profile.alt, self.profile.null)
        means.flags.writeable = False
        object.__setattr__(self, "means", means)
        object.__setattr__(
            self, "metrics", tuple(MetricKind(k) for k in self.metrics)
        )
        if not self.metrics:
            raise ValueError("metrics: need at least one metric, got none")
        check_distinct(self.metrics)
        store_checked(self, check_count, "replications", "horizon")
        store_checked(self, check_word, "master_seed")
        self.rule.check(self.profile, self.metrics)
        check_signals(self.metrics, len(self.truth))

    def __reduce__(self):
        # Pickles carry only the fields; the receiver rebuilds the columns.
        return (type(self), tuple(getattr(self, f.name) for f in fields(self)))


@dataclass(frozen=True, eq=False)
class _Trials:
    """Outcomes of a run of trials as columns, one entry per trial in
    trial order: the stopping time, whether the horizon ended the trial,
    and the confusion counts."""

    stopping_time: np.ndarray
    horizon_hit: np.ndarray
    counts: ConfusionCounts

    @classmethod
    def of(cls, decisions: list[Decision], signal: np.ndarray) -> _Trials:
        """The columns of trials' decisions under a (J,) signal mask, their
        rejection masks stacked and counted at once."""
        return cls(
            np.array([d.stopping_time for d in decisions]),
            np.array([d.stopped_by == STOP_HORIZON for d in decisions]),
            confusion(np.stack([d.rejected for d in decisions]), signal),
        )

    @classmethod
    def concatenate(cls, parts: Sequence[_Trials]) -> _Trials:
        return cls(
            np.concatenate([p.stopping_time for p in parts]),
            np.concatenate([p.horizon_hit for p in parts]),
            ConfusionCounts.concatenate([p.counts for p in parts]),
        )


def fixed_sample_pvalues(
    profile: StreamProfile, totals: np.ndarray, n: int
) -> np.ndarray:
    """One-sided p-values of observation sums after n steps.

    ``totals`` has shape (..., J): one trial's (J,) sums or a (trials, J)
    stack.  Each p-value depends on its own sum only, so a stack gives
    each trial the p-values it would get alone.
    """
    z = (np.asarray(totals, dtype=float) - n * profile.null) / math.sqrt(n)
    return ndtr(np.where(profile.alt > profile.null, -z, z))


# Holds, as ``generator``, the one generator each thread rekeys for every
# trial it runs.
_thread_state = threading.local()


def _thread_generator() -> np.random.Generator:
    rng = getattr(_thread_state, "generator", None)
    if rng is None:
        rng = _thread_state.generator = np.random.Generator(np.random.Philox(0))
    return rng


# A worker's copy of its pool's abort event, set by ``_start_worker``; the
# calling process, which runs trials without a pool, has none.
_abort = None


def _aborted() -> bool:
    return _abort is not None and _abort.is_set()


# Values in one batch (512 KiB of floats).  A batch of fixed-sample trials
# holds as many trials' (J,) uniforms as fit, and at least one; a batch of
# sequential trials as many (J,) rejection masks.
_BATCH_VALUES = 2**16


def draw_batches(
    config: ExperimentConfig, trials: np.ndarray, taken, steps: int, values: int
):
    """Yield ``(batch, block)``: the next ``steps`` rows of each of
    ``trials`` (trial indices), a batch of trials at a time, as the batch's
    indices and their (batch, steps, J) observations.

    ``taken`` holds the rows each trial has drawn, as a column or one count
    for all.  A batch holds at most ``values`` values, and at least one
    trial, in one buffer that every batch reuses, so a block is the
    caller's only until the next is drawn.  Each trial fills its slice from
    value ``taken * J`` of its own stream, on the thread's generator rekeyed
    by ``trial_rng``, so it draws what it would alone; the inverse CDF then
    runs once per batch.  The abort event is checked before each batch is
    drawn, and ends the draws once set.
    """
    j = config.profile.j
    batch = max(1, min(len(trials), values // (steps * j)))
    buffer = np.empty((batch, steps, j))
    rng = _thread_generator()
    starts = np.broadcast_to(np.multiply(taken, j), len(trials)).tolist()
    for first in range(0, len(trials), batch):
        if _aborted():
            return
        part = slice(first, first + batch)
        indices = trials[part]
        block = buffer[: len(indices)]
        for i, start, rows in zip(indices.tolist(), starts[part], block):
            trial_rng(config.master_seed, i, rng, start).random(out=rows)
        yield indices, config.profile.from_uniforms(block, config.means)


def _fixed_decisions(config: ExperimentConfig, block: np.ndarray) -> np.ndarray:
    """Rejection masks of fixed-sample trials, a (batch, J) stack, from
    one observation per stream, a (batch, 1, J) block.

    A gaussian stream's total after n steps is N(n mu, n), so the totals
    n mu + sqrt(n) (x - mu) of one observation x ~ N(mu, 1) have the law
    of n observations' sums.  The totals, the p-values and the decisions
    run once over the batch; each of them treats a trial's values apart
    from the others', bit for bit.
    """
    rule = config.rule
    n = rule.sample_size
    totals = (block[:, 0] - config.means) * math.sqrt(n) + n * config.means
    pvalues = fixed_sample_pvalues(config.profile, totals, n)
    if isinstance(rule, BhRule):
        return bh_decide(pvalues, rule.level)
    return top_m_decide(pvalues, rule.num_signals)


def _run_fixed(config: ExperimentConfig, start: int, stop: int) -> _Trials | None:
    """Trials ``start .. stop - 1`` of a fixed-sample rule, a batch at a
    time (``draw_batches``), each batch decided and counted at once."""
    n = config.rule.sample_size
    counts = []
    for _, block in draw_batches(config, np.arange(start, stop), 0, 1, _BATCH_VALUES):
        counts.append(confusion(_fixed_decisions(config, block), config.signal))
    if _aborted():
        return None  # the pool's owner is raising and never reads this chunk
    return _Trials(
        np.full(stop - start, n),
        np.zeros(stop - start, dtype=bool),
        ConfusionCounts.concatenate(counts),
    )


def run_trial(config: ExperimentConfig, trial_index: int) -> Decision:
    """Run one trial on its own generator substream and return its
    decision: stopping time, rejection mask and the event that fired.

    The generator is the calling thread's own, rekeyed for this trial, so
    threads may run trials side by side.  A fixed-sample trial runs as a
    batch of one, the path every fixed-sample trial of an experiment takes:
    the first J values of its stream give one observation per stream,
    whatever the sample size.
    """
    if not config.rule.sequential:
        n = config.rule.sample_size
        trials = np.array([trial_index])
        ((_, block),) = draw_batches(config, trials, 0, 1, _BATCH_VALUES)
        return Decision(n, _fixed_decisions(config, block)[0], STOP_FIXED)
    rng = trial_rng(config.master_seed, trial_index, _thread_generator())
    return run_sequential(config.rule, config.profile, config.means, config.horizon, rng)


def _run_range(
    configs: tuple[ExperimentConfig, ...], start: int, stop: int
) -> list[_Trials] | None:
    """Trials ``start .. stop - 1`` of each of ``configs``, which differ only
    in their rule, as one ``_Trials`` per config.

    Fixed-sample configs run one after the other.  A sequential trial
    draws its path once and every config's rule scans it (``run_shared``);
    a lone config runs each trial through ``run_trial``.  Each batch of
    their rejection masks is stacked and counted at once.  The abort event
    is checked between trials.
    """
    config = configs[0]
    if not config.rule.sequential:
        return [_run_fixed(c, start, stop) for c in configs]
    rules = tuple(c.rule for c in configs)
    shared = len(rules) > 1
    rng = _thread_generator()
    batch = max(1, _BATCH_VALUES // (len(rules) * config.profile.j))
    parts = []
    for first in range(start, stop, batch):
        trials = []
        for i in range(first, min(first + batch, stop)):
            if _aborted():
                return None  # the pool's owner is raising and never reads this chunk
            if shared:
                trial_rng(config.master_seed, i, rng)
                trials.append(
                    run_shared(rules, config.profile, config.means, config.horizon, rng)
                )
            else:
                trials.append((run_trial(config, i),))
        parts.append([_Trials.of(column, config.signal) for column in zip(*trials)])
    return [_Trials.concatenate(column) for column in zip(*parts)]


def _start_worker(abort) -> None:
    # Workers leave a Ctrl-C to the parent, which owns the pool, and stop
    # between trials (or batches) once it sets ``abort``.
    global _abort
    _abort = abort
    signal.signal(signal.SIGINT, signal.SIG_IGN)


@contextmanager
def worker_pool(workers: int):
    """One process pool for every experiment of a call, or ``None`` at one
    worker, which runs the trials in the calling process.

    On any exception, including an interrupt, the pool sets its abort event,
    which ends the chunks already handed to a worker after their current
    trial (or batch of fixed-sample trials), and cancels the rest, so that
    no worker outlives the call.
    """
    workers = check_count(workers, "workers")
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


def aggregate_counts(
    config: ExperimentConfig, counts: ConfusionCounts
) -> dict[MetricKind, MetricEstimate]:
    """The config's metric estimates over count columns in trial order."""
    return {kind: aggregate(kind, counts) for kind in config.metrics}


def run_experiment(
    config: ExperimentConfig,
    workers: int = 1,
    pool: ProcessPoolExecutor | None = None,
) -> ExperimentReport:
    """Run all trials of ``config``: ``run_experiments`` of its rule alone."""
    return run_experiments(config, (config.rule,), workers, pool)[0]


def run_experiments(
    base: ExperimentConfig,
    rules: Sequence[Rule],
    workers: int = 1,
    pool: ProcessPoolExecutor | None = None,
) -> list[ExperimentReport]:
    """Run all trials of ``base`` with each of ``rules``, all of one kind,
    and report each rule's experiment, aggregated in trial order.

    The n trials run in ``min(n, workers * 4)`` contiguous index ranges:
    in the calling process at one worker, otherwise on ``pool`` if one is
    given (a call that runs several experiments shares one
    ``worker_pool``) or on a ``worker_pool(workers)`` of this run's own.
    A range of sequential trials runs one trial at a time, each trial's
    path drawn once for every rule; a range of fixed-sample trials runs
    a batch of trials at a time, one observation per stream.  Each range
    comes back as columns, one set per rule.  The ranges come back in
    order, so the joined columns are in trial order.
    """
    workers = check_count(workers, "workers")
    configs = tuple(replace(base, rule=rule) for rule in rules)
    if not configs:
        raise ValueError("need at least one config")
    if len({config.rule.sequential for config in configs}) > 1:
        raise ValueError("configs must not mix sequential and fixed-sample rules")
    started = time.perf_counter()
    n = base.replications
    chunks = min(n, workers * 4)
    bounds = [round(k * n / chunks) for k in range(chunks + 1)]
    with nullcontext(pool) if pool is not None else worker_pool(workers) as pool:
        ranges = (pool.map if pool is not None else map)(
            _run_range, [configs] * chunks, bounds[:-1], bounds[1:]
        )
        columns = list(zip(*ranges))
    reports = []
    for config, parts in zip(configs, columns):
        trials = _Trials.concatenate(parts)
        reports.append(
            ExperimentReport(
                config=config,
                mean_stopping_time=mean_se(trials.stopping_time.astype(float).tolist()),
                metrics=aggregate_counts(config, trials.counts),
                horizon_hits=int(np.count_nonzero(trials.horizon_hit)),
                wall_time=time.perf_counter() - started,
            )
        )
    return reports


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

    Each budget point runs the base experiment at that budget's formula
    thresholds with the same master seed (common random numbers across
    points, which sharpens the comparison), and reports the ratio of the
    estimated expected stopping time to the benchmark.  The ratio should
    decrease toward 1 as the budget shrinks.  The points differ only in
    their rule, so all of them run as one ``run_experiments`` call on
    ``workers`` processes: each trial's path is drawn once, and every
    point's rule scans it until that rule fires.
    """
    if not budgets:
        raise ValueError("need at least one budget point")
    if not base.rule.sequential:
        raise ValueError(
            "the sweep needs a sequential rule with formula thresholds; got "
            f"{base.rule.name!r}"
        )
    profile, truth = base.profile, base.truth
    # Every point's rule and benchmark first, and ``run_experiments`` builds
    # every config before any trial, so an invalid point fails before any.
    rules = [base.rule.at_budget(budget, profile.j, truth, control) for budget in budgets]
    kappas = [
        rule.kappa(budget, profile, truth) for rule, budget in zip(rules, budgets)
    ]
    reports = run_experiments(base, rules, workers)
    rows = tuple(
        SweepRow(
            alpha=budget.alpha,
            beta=budget.beta,
            rule=report.config.rule,
            mean_stopping_time=report.mean_stopping_time,
            kappa=kappa,
            ratio=report.mean_stopping_time.value / kappa,
            horizon_hits=report.horizon_hits,
        )
        for budget, kappa, report in zip(budgets, kappas, reports)
    )
    return SweepReport(base=base, control=control, rows=rows)


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
    selected = [check_int(m, "row") for m in rows]
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
    replications = check_count(replications, "replications")
    master_seed = check_word(master_seed, "master_seed")
    spec = BENCHMARKS[which]
    profile = StreamProfile.homogeneous(spec.model, spec.j)
    out = []
    with worker_pool(workers) as pool:
        for m in selected:
            threshold, bh_n, topm_n = spec.rows[m]
            truth = frozenset(range(1, m + 1))
            rules = (
                GapRule(num_signals=m, threshold=threshold),
                BhRule(sample_size=bh_n, level=spec.level),
                TopMRule(sample_size=topm_n, num_signals=m),
            )
            seeds = (derive_seed(master_seed, m, sub) for sub in range(len(rules)))
            gap, bh, topm = (
                run_experiment(
                    ExperimentConfig(profile, truth, rule, replications, seed),
                    workers=workers,
                    pool=pool,
                )
                for rule, seed in zip(rules, seeds)
            )
            gap_et = gap.mean_stopping_time.value
            out.append(
                BenchmarkRow(
                    num_signals=m,
                    threshold=threshold,
                    gap_et=gap.mean_stopping_time,
                    gap_fdr=gap.metrics[MetricKind.FDR],
                    gap_fnr=gap.metrics[MetricKind.FNR],
                    bh_sample_size=bh_n,
                    bh_savings=1.0 - gap_et / bh_n,
                    bh_fdr=bh.metrics[MetricKind.FDR],
                    bh_fnr=bh.metrics[MetricKind.FNR],
                    topm_sample_size=topm_n,
                    topm_savings=1.0 - gap_et / topm_n,
                    topm_fdr=topm.metrics[MetricKind.FDR],
                    topm_fnr=topm.metrics[MetricKind.FNR],
                )
            )
    return BenchmarkReport(
        which=which,
        j=spec.j,
        replications=replications,
        master_seed=master_seed,
        rows=tuple(out),
    )
