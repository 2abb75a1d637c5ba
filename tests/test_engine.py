"""Tests for the Monte Carlo engine: seeding, determinism, aggregation."""

import json
import math
import pickle
import re
import sys
import threading
from dataclasses import fields, replace
from typing import Callable, NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

import oracles
from oracles import p_value
import seqgap.engine
from seqgap import (
    BERNOULLI,
    GAUSSIAN_MEAN,
    BhRule,
    ExperimentConfig,
    GapIntersectionRule,
    GapRule,
    IntersectionRule,
    MetricKind,
    StreamModel,
    StreamProfile,
    TopMRule,
    asymptotic_sweep,
    derive_seed,
    reproduce_table,
    run_experiment,
    run_trial,
    trial_rng,
)
from seqgap.calibrate import CalibrationSettings
from seqgap.engine import (
    config_to_dict,
    fixed_sample_pvalues,
    rule_to_dict,
    study_rows,
    worker_pool,
)
from seqgap.rules import STOP_GAP, STOP_HORIZON
from seqgap.thresholds import ErrorBudget


def profile10(theta=0.5, j=10):
    return StreamProfile.homogeneous(
        StreamModel(family=GAUSSIAN_MEAN, null=0.0, alt=theta), j
    )


def gap_config(reps=200, seed=42, m=5, threshold=2.1, metrics=None, j=10):
    return ExperimentConfig(
        profile=profile10(j=j),
        truth=frozenset(range(1, m + 1)),
        rule=GapRule(num_signals=m, threshold=threshold),
        replications=reps,
        master_seed=seed,
        metrics=tuple(metrics or (MetricKind.FDR, MetricKind.FNR)),
    )


def keyed(master_seed, trial_index):
    """A new Philox generator under trial ``trial_index``'s 128-bit key."""
    return np.random.Generator(np.random.Philox(key=(master_seed << 64) + trial_index))


def test_trial_rng_counter_seeding_is_deterministic():
    a = trial_rng(42, 7).random(5)
    b = trial_rng(42, 7).random(5)
    np.testing.assert_array_equal(a, b)


def test_trial_rng_distinct_indices_differ():
    a = trial_rng(42, 7).random(5)
    b = trial_rng(42, 8).random(5)
    assert not np.array_equal(a, b)


@settings(max_examples=200, deadline=None)
@given(
    master_seed=st.integers(0, 2**64 - 1),
    trial_index=st.integers(0, 2**64 - 1),
    buffers=st.integers(0, 3),
    words=st.integers(0, 2),
)
@example(master_seed=0, trial_index=0, buffers=0, words=0)
@example(master_seed=2**64 - 1, trial_index=2**64 - 1, buffers=0, words=0)
@example(master_seed=0, trial_index=2**64 - 1, buffers=1, words=2)
@example(master_seed=2**64 - 1, trial_index=0, buffers=1, words=2)
def test_rekeyed_generator_equals_a_fresh_one(
    master_seed, trial_index, buffers, words
):
    """A generator rekeyed after use draws what a new one of that key draws,
    and so does one ``trial_rng`` builds itself."""
    shared = trial_rng(derive_seed(master_seed, 1), 3)
    # An odd count of 32-bit draws leaves half a 64-bit word held back, and
    # 1 to 3 words of the last four-word Philox buffer read.
    shared.integers(2**32, size=8 * buffers + 2 * words + 1, dtype=np.uint32)
    state = shared.bit_generator.state
    assert state["has_uint32"] == 1 and 0 < state["buffer_pos"] < 4
    rekeyed = trial_rng(master_seed, trial_index, shared)
    assert rekeyed is shared
    built = trial_rng(master_seed, trial_index)
    fresh = keyed(master_seed, trial_index)
    assert rekeyed.bit_generator.state["has_uint32"] == 0
    # Odd lengths and a span past one buffer cover the held-back word and a
    # buffer refill.
    for size in (1, 3, 8, 1):
        want = fresh.random(size).tobytes()
        assert rekeyed.random(size).tobytes() == built.random(size).tobytes() == want
    want = fresh.integers(2**32, dtype=np.uint32)
    assert rekeyed.integers(2**32, dtype=np.uint32) == want
    assert built.integers(2**32, dtype=np.uint32) == want
    want = fresh.random(5).tobytes()
    assert rekeyed.random(5).tobytes() == built.random(5).tobytes() == want


def test_trial_rng_validates_seed_range():
    with pytest.raises(ValueError):
        trial_rng(-1, 0)
    with pytest.raises(ValueError):
        trial_rng(2**64, 0)


EDGE_KEYS = st.sampled_from([0, 2**64 - 1]) | st.integers(0, 2**64 - 1)


@settings(max_examples=200, deadline=None)
@given(
    master_seed=EDGE_KEYS,
    trial_index=EDGE_KEYS,
    j=st.integers(2, 100),
    row=st.integers(0, 40),
    offset=st.integers(0, 3),
    rows=st.integers(1, 4),
    rekey=st.booleans(),
)
@example(master_seed=0, trial_index=0, j=2, row=0, offset=0, rows=1, rekey=False)
@example(
    master_seed=2**64 - 1, trial_index=2**64 - 1, j=3, row=7, offset=1, rows=2,
    rekey=True,
)
@example(master_seed=0, trial_index=2**64 - 1, j=10, row=3, offset=2, rows=3, rekey=True)
@example(master_seed=2**64 - 1, trial_index=0, j=100, row=40, offset=3, rows=1, rekey=False)
def test_counter_addressed_rows_are_the_stream_from_their_start(
    master_seed, trial_index, j, row, offset, rows, rekey
):
    """Values drawn from ``trial_rng(seed, i, rng, start)`` are values
    start.. of a new generator's stream for (seed, i), bit for bit, with
    or without a used generator to rekey.  ``offset`` puts the start off
    a row boundary, and with J odd the row starts themselves fall at
    every position in a four-value Philox block."""
    start = row * j + offset
    stream = keyed(master_seed, trial_index).random(start + rows * j)
    shared = None
    if rekey:
        shared = trial_rng(derive_seed(master_seed, 1), 3)
        shared.integers(2**32, size=5, dtype=np.uint32)  # a held-back half word
    drawn = trial_rng(master_seed, trial_index, shared, start).random((rows, j))
    assert drawn.tobytes() == stream[start:].tobytes()


@pytest.mark.parametrize(
    "args,name",
    [
        ((0, -1), "trial_index"),
        ((0, 2**64), "trial_index"),
        ((0, 0, None, -1), "start"),
        ((0, 0, None, 2**64), "start"),
        ((0, 0, "rekey", -5), "start"),
    ],
)
def test_trial_rng_rejects_an_index_or_start_out_of_range(args, name):
    """A start outside 0..2**64 - 1 fails as a bad trial index does, also
    when a generator would be rekeyed; the largest start draws."""
    if args[2:3] == ("rekey",):
        args = (*args[:2], trial_rng(1, 1), *args[3:])
    with pytest.raises(ValueError, match=f"^{name} must be a 64-bit integer, got"):
        trial_rng(*args)
    assert trial_rng(0, 2**64 - 1, None, 2**64 - 1).random(3).shape == (3,)


def test_derive_seed_is_stable_and_path_dependent():
    assert derive_seed(5, 1, 2) == derive_seed(5, 1, 2)
    assert derive_seed(5, 1, 2) != derive_seed(5, 2, 1)
    assert derive_seed(5, 1) != derive_seed(6, 1)


class IntegerInput(NamedTuple):
    """An integer input of the library: the least value it accepts, the
    first it rejects above (None: no bound), how its error starts for a
    value that is not an integer and for an integer out of range (each a
    template that the value fills), what the library keeps of a value, and
    the largest valid value worth drawing (a count of streams or rows is
    allocated)."""

    low: int
    high: int | None
    not_integer: str
    out_of_range: str
    stored: Callable
    largest: int = 2**63 - 1


def count_input(name, low, stored, largest=2**63 - 1):
    """An input with no upper bound, checked by ``check_count``."""
    return IntegerInput(
        low, None, f"{name} must be an integer, got {{!r}}",
        f"{name} must be >= {low}, got {{}}", stored, largest,
    )


def word_input(name, stored):
    """An input in 0..2**64 - 1, checked by ``check_word``."""
    message = f"{name} must be a 64-bit integer, got {{!r}}"
    return IntegerInput(0, 2**64, message, message, stored)


CONFIG_BASE = dict(
    profile=profile10(),
    truth=frozenset({1}),
    rule=GapRule(num_signals=1, threshold=2.0),
    replications=3,
    master_seed=1,
)


def config_field(field):
    """The value an ExperimentConfig keeps for ``field``, which its
    serialized form reads back."""

    def stored(value):
        config = ExperimentConfig(**{**CONFIG_BASE, field: value})
        kept = getattr(config, field)
        assert json.loads(json.dumps(config_to_dict(config)))[field] == kept
        return kept

    return stored


def bracket(min_signals=0, max_signals=2**64):
    return GapIntersectionRule(min_signals, max_signals, 1.0, 1.0, 1.0, 1.0)


def pool_of(workers):
    with worker_pool(workers) as pool:
        return pool


INTEGER_INPUTS = {
    "replications": count_input("replications", 1, config_field("replications")),
    "horizon": count_input("horizon", 1, config_field("horizon")),
    "master_seed": word_input("master_seed", config_field("master_seed")),
    "signal label": IntegerInput(
        1, 11, "signal label must be an integer, got {!r}",
        "signal labels must be in 1..10, got [{}]",
        lambda v: min(ExperimentConfig(**{**CONFIG_BASE, "truth": {v}}).truth),
    ),
    "GapRule.num_signals": count_input(
        "num_signals", 1, lambda v: GapRule(num_signals=v, threshold=2.0).num_signals
    ),
    "GapIntersectionRule.min_signals": count_input(
        "min_signals", 0, lambda v: bracket(min_signals=v).min_signals
    ),
    "GapIntersectionRule.max_signals": IntegerInput(
        1, None, "max_signals must be an integer, got {!r}",
        "min_signals must be strictly below max_signals, got 0 >= {}",
        lambda v: bracket(max_signals=v).max_signals,
    ),
    "BhRule.sample_size": count_input(
        "sample_size", 1, lambda v: BhRule(sample_size=v, level=0.05).sample_size
    ),
    "TopMRule.sample_size": count_input(
        "sample_size", 1, lambda v: TopMRule(sample_size=v, num_signals=1).sample_size
    ),
    "TopMRule.num_signals": count_input(
        "num_signals", 1, lambda v: TopMRule(sample_size=3, num_signals=v).num_signals
    ),
    "CalibrationSettings.sample_size_cap": count_input(
        "sample_size_cap", 1,
        lambda v: CalibrationSettings(sample_size_cap=v).sample_size_cap,
    ),
    "StreamProfile.homogeneous count": count_input(
        "count", 2,
        lambda v: StreamProfile.homogeneous(StreamModel(GAUSSIAN_MEAN, 0.0, 1.0), v).j,
        largest=64,
    ),
    "sample_block steps": count_input(
        "steps", 1,
        lambda v: len(
            profile10().sample_block(np.ones(10), v, np.random.default_rng(1))
        ),
        largest=64,
    ),
    "derive_seed path": word_input("path", lambda v: derive_seed(5, v)),
    "study_rows": IntegerInput(
        1, 10, "row must be an integer, got {!r}", "no such rows [{}]",
        lambda v: study_rows("table1", [v])[0],
    ),
    # More than one valid worker would start a process pool of that size.
    "run_experiment workers": count_input(
        "workers", 1,
        lambda v: json.dumps(
            run_experiment(ExperimentConfig(**CONFIG_BASE), workers=v).payload()
        ),
        largest=1,
    ),
    "worker_pool workers": count_input("workers", 1, pool_of, largest=1),
}
NUMPY_INTS = (np.int64, np.uint64, np.int32)


def integer_input(name):
    """A valid value of the input ``name`` as a numpy int, or an invalid
    one: a float (integral ones too), a bool or an int out of range."""
    low, high, _, _, _, largest = INTEGER_INPUTS[name]
    top = min(high or 2**63, largest + 1) - 1
    numpy_int = st.tuples(
        st.sampled_from(NUMPY_INTS), st.integers(low, min(top, 2**31 - 1))
    ) | st.tuples(st.sampled_from(NUMPY_INTS[:2]), st.integers(low, top))
    out_of_range = st.integers(max_value=low - 1) | (
        st.integers(min_value=high) if high else st.nothing()
    )
    return st.one_of(
        numpy_int.map(lambda pair: pair[0](pair[1])),
        st.floats(allow_nan=True, allow_infinity=True),
        st.integers(low, 2**64 - 1).map(float),
        st.sampled_from((np.float64(5.0), 2.5, 1.5)),
        st.booleans(),
        out_of_range,
    )


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_config_integer_inputs_are_stored_as_python_ints_or_rejected(data):
    """Every integer input, of a config, a rule, the calibration settings,
    a profile, the seeding, the study rows or the worker count, keeps the
    Python int a numpy int equals, so it serializes; a float, even an
    integral one, or a bool fails with the input's message for a value
    that is not an integer instead of running truncated, and an int out
    of range with its message for that, each pinned with the value."""
    for name, (low, high, not_integer, out_of_range, stored, _) in (
        INTEGER_INPUTS.items()
    ):
        value = data.draw(integer_input(name), label=name)
        integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
        if not (integer and low <= int(value) < (high or math.inf)):
            message = (out_of_range if integer else not_integer).format(value)
            with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
                stored(value)
            continue
        got, want = stored(value), stored(int(value))
        assert got == want and type(got) is type(want), name


@settings(max_examples=100, deadline=None)
@given(data=st.data(), argument=st.sampled_from(["master_seed", "trial_index", "start"]))
def test_trial_rng_and_derive_seed_take_integers_only(data, argument):
    """``trial_rng`` draws trial i's stream for a numpy int i and rejects a
    float such as 2.7 instead of drawing trial 2's; ``derive_seed`` and
    ``reproduce_table`` reject a float seed instead of truncating it."""
    value = data.draw(integer_input("master_seed"), label=argument)
    args = {"master_seed": 3, "trial_index": 5, "start": 7}
    valid = isinstance(value, np.integer) and 0 <= int(value) < 2**64
    if not valid:
        with pytest.raises(ValueError, match=f"^{argument} must be a 64-bit integer"):
            trial_rng(**{**args, argument: value})
        if argument == "master_seed":
            with pytest.raises(ValueError, match="^master_seed must be a 64-bit"):
                derive_seed(value, 1)
            with pytest.raises(ValueError, match="^master_seed must be a 64-bit"):
                reproduce_table("table1", rows=[], master_seed=value)
        return
    want = trial_rng(**{**args, argument: int(value)}).random(3).tobytes()
    assert trial_rng(**{**args, argument: value}).random(3).tobytes() == want
    if argument == "master_seed":
        assert derive_seed(value, 1) == derive_seed(int(value), 1)
        report = reproduce_table("table1", rows=[], master_seed=value)
        assert type(report.master_seed) is int and report.master_seed == int(value)


def test_numpy_int_inputs_give_a_serializable_payload():
    """A run configured with numpy ints reports the same payload as with
    Python ints, and it serializes."""
    config = gap_config(reps=5, seed=3)
    numpy_config = replace(config, replications=np.int64(5), master_seed=np.uint64(3))
    payload = run_experiment(numpy_config).payload()
    assert json.dumps(payload) == json.dumps(run_experiment(config).payload())
    table = reproduce_table("table1", rows=[1], replications=np.int64(3))
    assert json.dumps(table.payload()) == json.dumps(
        reproduce_table("table1", rows=[1], replications=3).payload()
    )


def test_numpy_scalar_inputs_give_the_payload_of_python_numbers():
    """Rules, models, budgets and configs built from numpy ints and
    float32s keep Python numbers, so every payload serializes, the same
    as when built from the Python numbers they equal."""

    def payloads(integer, real):
        profile = StreamProfile.homogeneous(
            StreamModel(GAUSSIAN_MEAN, real(0.0), real(0.5)), integer(4)
        )
        rules = (
            GapRule(integer(1), real(2.1)),
            GapIntersectionRule(
                integer(0), integer(2), real(1.5), real(1.5), real(0.5), real(0.5)
            ),
            IntersectionRule(real(1.5), real(1.5)),
            BhRule(integer(20), real(0.05)),
            TopMRule(integer(20), integer(1)),
        )
        configs = [
            ExperimentConfig(
                profile=profile,
                truth=frozenset({integer(1)}),
                rule=rule,
                replications=integer(5),
                master_seed=integer(3),
            )
            for rule in rules
        ]
        reports = [run_experiment(config, workers=integer(1)) for config in configs]
        budgets = [ErrorBudget(real(0.05), real(0.1))]
        reports.append(asymptotic_sweep(configs[0], budgets, workers=integer(1)))
        return json.dumps([report.payload() for report in reports])

    python = payloads(int, lambda x: float(np.float32(x)))
    assert payloads(np.int64, np.float32) == python
    assert payloads(np.uint64, lambda x: np.float64(np.float32(x))) == python


REAL_INPUTS = {
    "threshold": lambda v: GapRule(num_signals=1, threshold=v),
    "accept_barrier": lambda v: IntersectionRule(v, 1.0),
    "reject_gap": lambda v: GapIntersectionRule(0, 2, 1.0, 1.0, 1.0, v),
    "level": lambda v: BhRule(sample_size=3, level=v),
    "beta": lambda v: ErrorBudget(alpha=0.05, beta=v),
    "null": lambda v: StreamModel(GAUSSIAN_MEAN, v, 1.0),
    "alt": lambda v: StreamModel(GAUSSIAN_MEAN, 0.0, v),
    "grid_step": lambda v: CalibrationSettings(grid_step=v),
    "threshold_cap": lambda v: CalibrationSettings(threshold_cap=v),
}


@pytest.mark.parametrize("value", [True, False, "2", None], ids=repr)
@pytest.mark.parametrize("name", sorted(REAL_INPUTS))
def test_real_inputs_reject_bools_and_strings(name, value):
    """A real-valued field rejects a bool, which would serialize as true or
    false, and a string, naming the field in a ValueError."""
    with pytest.raises(ValueError, match=f"^{name} must be a number, got {value!r}$"):
        REAL_INPUTS[name](value)


POSITIVE = "{} must be finite and positive, got {}"
PROBABILITY = "{} must be in (0, 1), got {}"
# Field -> (its name in messages, its range's message, a build of it).
RANGED_INPUTS = {
    "GapRule.threshold": ("threshold", POSITIVE, lambda v: GapRule(5, v)),
    **{
        f"GapIntersectionRule.{name}": (
            name,
            POSITIVE,
            lambda v, k=k: GapIntersectionRule(0, 2, *[1.0] * k, v, *[1.0] * (3 - k)),
        )
        for k, name in enumerate(GapIntersectionRule.threshold_names)
    },
    "IntersectionRule.accept_barrier": (
        "accept_barrier", POSITIVE, lambda v: IntersectionRule(v, 1.0)
    ),
    "IntersectionRule.reject_barrier": (
        "reject_barrier", POSITIVE, lambda v: IntersectionRule(1.0, v)
    ),
    "CalibrationSettings.grid_step": (
        "grid_step", POSITIVE, lambda v: CalibrationSettings(grid_step=v)
    ),
    "CalibrationSettings.threshold_cap": (
        "threshold_cap", POSITIVE, lambda v: CalibrationSettings(threshold_cap=v)
    ),
    "BhRule.level": ("level", PROBABILITY, lambda v: BhRule(3, v)),
    "ErrorBudget.alpha": ("alpha", PROBABILITY, lambda v: ErrorBudget(v, 0.05)),
    "ErrorBudget.beta": ("beta", PROBABILITY, lambda v: ErrorBudget(0.05, v)),
    "bernoulli StreamModel.null": (
        "bernoulli null parameter",
        PROBABILITY,
        lambda v: StreamModel(BERNOULLI, v, 0.5),
    ),
    "bernoulli StreamModel.alt": (
        "bernoulli alt parameter",
        PROBABILITY,
        lambda v: StreamModel(BERNOULLI, 0.5, v),
    ),
}


@pytest.mark.parametrize("value", [0, -1, math.inf, math.nan], ids=repr)
@pytest.mark.parametrize("field", sorted(RANGED_INPUTS))
def test_positive_and_probability_inputs_name_their_range(field, value):
    """Thresholds, barriers and the calibration grid must be finite and
    positive, and levels, budgets and bernoulli parameters in (0, 1): 0,
    -1, inf and nan each fail with the field's message and the value.  A
    model parameter is checked finite first, in either family."""
    name, message, build = RANGED_INPUTS[field]
    if field.startswith("bernoulli") and not math.isfinite(value):
        name, message = name.removeprefix("bernoulli "), "{} must be finite, got {}"
    expected = message.format(name, float(value))
    with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
        build(value)


def test_run_trial_deterministic():
    config = gap_config()
    first = oracles.outcome(run_trial(config, 3))
    second = oracles.outcome(run_trial(config, 3))
    assert first == second


def test_run_trial_in_two_threads_matches_one_thread():
    """Each thread rekeys its own generator, so threads cannot mix draws."""
    config = gap_config()
    expected = [oracles.outcome(run_trial(config, i)) for i in range(200)]
    got = [None] * 200
    start = threading.Barrier(2)

    def run(first):
        start.wait()
        for i in range(first, 200, 2):
            got[i] = oracles.outcome(run_trial(config, i))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, mid-trial included
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert got == expected


def test_trial_stopping_times_uncorrelated_across_indices():
    """Counter-based substreams: consecutive trials behave independently."""
    config = gap_config(reps=2)  # reps unused by run_trial itself
    n = 10_000
    times = np.array(
        [run_trial(config, i).stopping_time for i in range(2 * n)], dtype=float
    )
    pairs = times.reshape(n, 2)
    corr = np.corrcoef(pairs[:, 0], pairs[:, 1])[0, 1]
    assert abs(corr) < 3 / math.sqrt(n)


def test_gap_rule_rejects_exactly_m_every_trial():
    config = gap_config(reps=300)
    for i in range(300):
        decision = run_trial(config, i)
        assert np.count_nonzero(decision.rejected) == 5
        assert decision.stopped_by == STOP_GAP


@pytest.mark.parametrize(
    "rule",
    [
        GapRule(num_signals=3, threshold=1.5),
        GapIntersectionRule(
            min_signals=2,
            max_signals=5,
            accept_barrier=2.0,
            reject_barrier=2.0,
            accept_gap=2.0,
            reject_gap=2.0,
        ),
        BhRule(sample_size=20, level=0.1),
        TopMRule(sample_size=20, num_signals=3),
    ],
    ids=lambda rule: rule.name,
)
def test_every_trial_counts_the_truth_as_its_signals(rule):
    """W + R - V, the FPR divisor, is |truth| on every trial, whatever the
    rule rejects; this truth is not the first streams."""
    truth = frozenset({2, 7, 9})
    config = ExperimentConfig(
        profile=profile10(),
        truth=truth,
        rule=rule,
        replications=100,
        master_seed=7,
        metrics=(MetricKind.FPR,),
    )
    (trials,) = seqgap.engine._run_range((config,), 0, config.replications)
    counts = trials.counts
    assert counts.r.size == config.replications
    assert np.all(counts.w + counts.r - counts.v == len(truth))


def test_run_experiment_report_shape():
    config = gap_config(reps=150)
    report = run_experiment(config)
    assert set(report.metrics) == {MetricKind.FDR, MetricKind.FNR}
    assert report.horizon_hits == 0
    assert report.mean_stopping_time.value > 1
    assert report.wall_time >= 0
    payload = report.payload()
    assert "wall_time" not in payload
    assert payload["config"]["replications"] == 150


def test_worker_invariance_bitwise():
    """The same experiment gives byte-identical payloads at any worker count."""
    config = gap_config(reps=240, seed=11)
    base = run_experiment(config, workers=1).payload()
    assert run_experiment(config, workers=3).payload() == base
    assert run_experiment(config, workers=8).payload() == base


@pytest.mark.parametrize("n", [1, 2, 3, 5, 100])
def test_one_worker_runs_the_ranges_a_pool_would(n, monkeypatch):
    """At one worker the trials run in min(n, workers * 4) contiguous,
    nonempty ranges, in order, as they do on a pool."""
    calls = []
    original = seqgap.engine._run_range

    def recording(config, start, stop):
        calls.append((start, stop))
        return original(config, start, stop)

    monkeypatch.setattr(seqgap.engine, "_run_range", recording)
    report = run_experiment(gap_config(reps=n), workers=1)
    assert len(calls) == min(n, 4)
    assert calls[0][0] == 0 and calls[-1][1] == n
    assert all(start < stop for start, stop in calls)
    assert all(a[1] == b[0] for a, b in zip(calls, calls[1:]))
    assert report.metrics[MetricKind.FDR].n_effective == n


def test_run_experiment_seed_sensitivity():
    config_a = gap_config(reps=150, seed=1)
    config_b = gap_config(reps=150, seed=2)
    assert (
        run_experiment(config_a).payload() != run_experiment(config_b).payload()
    )


def test_fixed_sample_pvalues_match_scalar():
    profile = profile10(j=4)
    totals = np.array([1.2, -0.3, 4.0, 0.0])
    got = fixed_sample_pvalues(profile, totals, 9)
    expected = [p_value(t, 9, m) for t, m in zip(totals, profile.models)]
    np.testing.assert_allclose(got, expected, atol=1e-14)
    direct = ndtr(-(totals - 0.0) / 3.0)
    np.testing.assert_allclose(got, direct, atol=1e-14)


def test_fixed_sample_pvalues_follow_each_streams_direction():
    """Streams whose alternative lies below the null take the lower tail."""
    profile = StreamProfile(
        models=(
            StreamModel(GAUSSIAN_MEAN, null=0.0, alt=0.5),
            StreamModel(GAUSSIAN_MEAN, null=1.0, alt=0.2),
            StreamModel(GAUSSIAN_MEAN, null=-0.5, alt=-2.0),
            StreamModel(GAUSSIAN_MEAN, null=0.3, alt=0.8),
        )
    )
    totals = np.array([1.2, 2.0, -9.0, 5.0])
    got = fixed_sample_pvalues(profile, totals, 9)
    expected = [p_value(t, 9, m) for t, m in zip(totals, profile.models)]
    np.testing.assert_array_equal(got, expected)
    assert got[1] < 0.5 and got[2] < 0.5


def test_bh_rule_experiment_runs():
    config = ExperimentConfig(
        profile=profile10(),
        truth=frozenset(range(1, 6)),
        rule=BhRule(sample_size=52, level=0.05),
        replications=400,
        master_seed=9,
    )
    report = run_experiment(config)
    assert report.mean_stopping_time.value == 52.0
    assert report.mean_stopping_time.se == 0.0
    assert 0 <= report.metrics[MetricKind.FDR].value < 0.2


@st.composite
def _fixed_configs(draw):
    """A bh or top-m experiment on J = 2..12 gaussian streams, each with its
    own null and alternative in either direction, n = 1..80 and 1..40
    replications."""
    j = draw(st.integers(2, 12))
    mean = st.floats(-2.0, 2.0, allow_subnormal=False)
    models = tuple(
        StreamModel(GAUSSIAN_MEAN, null=null, alt=alt)
        for null, alt in draw(
            st.lists(
                st.tuples(mean, mean).filter(lambda pair: pair[0] != pair[1]),
                min_size=j,
                max_size=j,
            )
        )
    )
    n = draw(st.integers(1, 80))
    if draw(st.booleans()):
        rule = BhRule(sample_size=n, level=draw(st.floats(0.001, 0.999)))
    else:
        rule = TopMRule(sample_size=n, num_signals=draw(st.integers(1, j - 1)))
    return ExperimentConfig(
        profile=StreamProfile(models),
        truth=draw(st.frozensets(st.integers(1, j))),
        rule=rule,
        replications=draw(st.integers(1, 40)),
        master_seed=draw(st.integers(0, 2**64 - 1)),
    )


@pytest.mark.parametrize("cap", ["one value", "partial last batch", "default"])
@settings(max_examples=40, deadline=None)
@given(config=_fixed_configs(), data=st.data())
def test_fixed_sample_batches_match_the_one_trial_oracle(cap, config, data):
    """A range of fixed-sample trials run in batches gives, record for
    record, what each trial gives run alone, whatever the batch size:
    one trial (a cap below one trial's values), batches that leave a
    partial last one, or the default."""
    n, j, reps = config.rule.sample_size, config.profile.j, config.replications
    if cap == "one value":
        values = 1
    elif cap == "partial last batch":
        assume(reps >= 3)
        per_batch = data.draw(st.integers(2, reps - 1).filter(lambda b: reps % b))
        # Not a multiple of one trial's J values, so the cap is rounded down.
        values = per_batch * j + j - 1
    else:
        values = seqgap.engine._BATCH_VALUES
    expected = [oracles.fixed_trial(config, i) for i in range(reps)]
    expected_counts = [
        oracles.confusion(rejected, config.truth, j) for _, rejected, _ in expected
    ]
    with mock.patch.object(seqgap.engine, "_BATCH_VALUES", values):
        (trials,) = seqgap.engine._run_range((config,), 0, reps)
        assert trials.stopping_time.tolist() == [n] * reps
        assert not trials.horizon_hit.any()
        assert oracles.rows(trials.counts) == expected_counts
        assert [oracles.outcome(run_trial(config, i)) for i in range(reps)] == expected


@pytest.mark.parametrize("cap", ["below one trial", "partial last batch", "default"])
@settings(max_examples=40, deadline=None)
@given(config=_fixed_configs(), data=st.data())
def test_draw_batches_give_each_trial_its_own_rows(cap, config, data):
    """``draw_batches`` yields, in the order given, each trial's rows
    ``taken .. taken + steps - 1`` bit for bit as the trial draws them
    alone from value ``taken * J`` of its stream, for trial indices with
    gaps and a row count per trial.  No batch holds more than the cap's
    values unless it holds one trial: the cap is below one trial's block,
    leaves a partial last batch, or is the default."""
    j = config.profile.j
    indices = data.draw(
        st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=30, unique=True),
        label="trials",
    )
    n = len(indices)
    trials = np.array(indices, dtype=np.int64)
    taken = np.array(
        data.draw(st.lists(st.integers(0, 200), min_size=n, max_size=n)), dtype=np.int64
    )
    steps = data.draw(st.integers(1, 6), label="steps")
    size = steps * j
    if cap == "below one trial":
        values = size - 1
    elif cap == "partial last batch":
        assume(n >= 3)
        per_batch = data.draw(st.integers(2, n - 1).filter(lambda b: n % b))
        values = per_batch * size + data.draw(st.integers(0, size - 1))
    else:
        values = seqgap.engine._BATCH_VALUES
    batches = [
        (batch.tolist(), block.copy())
        for batch, block in seqgap.engine.draw_batches(
            config, trials, taken, steps, values
        )
    ]
    assert [i for batch, _ in batches for i in batch] == indices
    assert all(len(batch) * size <= values or len(batch) == 1 for batch, _ in batches)
    expected = [
        config.profile.from_uniforms(
            trial_rng(config.master_seed, i, None, t * j).random((steps, j)),
            config.means,
        )
        for i, t in zip(indices, taken.tolist())
    ]
    got = np.concatenate([block for _, block in batches])
    assert got.tobytes() == np.stack(expected).tobytes()


def test_draw_batches_check_the_abort_event_before_each_batch(monkeypatch):
    """Once a worker's abort event is set, ``draw_batches`` draws no further
    batch: the trials of the batch it yielded are the only ones drawn."""
    config = replace(gap_config(reps=6), rule=BhRule(sample_size=4, level=0.05))
    abort, drawn = threading.Event(), []

    def recording(master_seed, trial_index, rng=None, start=0):
        drawn.append(trial_index)
        return trial_rng(master_seed, trial_index, rng, start)

    monkeypatch.setattr(seqgap.engine, "_abort", abort)
    monkeypatch.setattr(seqgap.engine, "trial_rng", recording)
    batches = seqgap.engine.draw_batches(config, np.arange(6), 0, 4, 2 * 4 * 10)
    batch, _ = next(batches)
    assert batch.tolist() == drawn == [0, 1]
    abort.set()
    assert list(batches) == []
    assert drawn == [0, 1]


@pytest.mark.parametrize("j", [2, 10, 100, 1000])
def test_batch_totals_are_each_trials_left_fold_over_its_rows(j):
    """The premise under a batch's sums over rows, which the gap search's
    ``cumulate`` takes and a batch of row totals would: numpy sums a
    (B, n, J) stack over axis 1 exactly as it sums each trial's (n, J)
    block over axis 0, a left fold over the rows, bit for bit, also across
    mixed magnitudes, where another summation order would round
    differently.  A cumulative sum over the rows, of the stack or of one
    block, is the same fold: its last row and an interior prefix row equal
    the fold's total and partial total."""
    rng = np.random.default_rng(j)
    for n in (1, 2, 7, 64, 1000, 3000 if j < 1000 else 1000):
        block = rng.standard_normal((2, n, j)) * 10.0 ** rng.integers(
            -8, 9, size=(2, n, j)
        )
        totals = block.sum(axis=1)
        for trial, x, stacked in zip(totals, block, np.cumsum(block, axis=1)):
            cumulative = np.cumsum(x, axis=0)
            assert stacked.tobytes() == cumulative.tobytes()
            fold = x[0].copy()
            for k, row in enumerate(x[1:], start=1):
                fold += row
                if k == n // 2:
                    assert cumulative[k].tobytes() == fold.tobytes()
            assert trial.tobytes() == x.sum(axis=0).tobytes() == fold.tobytes()
            assert cumulative[-1].tobytes() == fold.tobytes()


def test_config_validation_rejects_mismatched_rule():
    with pytest.raises(ValueError):
        gap_config(m=10)  # num_signals must stay below J
    with pytest.raises(ValueError):
        ExperimentConfig(
            profile=profile10(j=4),
            truth=frozenset({1}),
            rule=GapIntersectionRule(
                min_signals=2,
                max_signals=5,
                accept_barrier=1.0,
                reject_barrier=1.0,
                accept_gap=1.0,
                reject_gap=1.0,
            ),
            replications=10,
            master_seed=0,
        )  # bracket exceeds J


def test_config_validation_conditional_metrics_under_bracket():
    def build(lo, hi, metric):
        return ExperimentConfig(
            profile=profile10(),
            truth=frozenset({1, 2, 3}),
            rule=GapIntersectionRule(
                min_signals=lo,
                max_signals=hi,
                accept_barrier=2.0,
                reject_barrier=2.0,
                accept_gap=3.0,
                reject_gap=3.0,
            ),
            replications=10,
            master_seed=0,
            metrics=(metric,),
        )

    fails = "so the conditioning event can fail"
    with pytest.raises(ValueError) as caught:
        build(0, 5, MetricKind.PFDR)
    assert str(caught.value) == (
        "pfdr needs a rule that rejects at least one stream: the gap-intersection "
        f"rule rejects 0..5 of J = 10, {fails}"
    )
    with pytest.raises(ValueError) as caught:
        build(1, 10, MetricKind.PFNR)
    assert str(caught.value) == (
        "pfnr needs a rule that accepts at least one stream: the gap-intersection "
        f"rule rejects 1..10 of J = 10, {fails}"
    )
    build(1, 9, MetricKind.PFDR)  # interior bracket is fine
    build(1, 9, MetricKind.PFNR)
    # The intersection rule has no bracket keys; the message names its range.
    for metric, side in ((MetricKind.PFDR, "rejects"), (MetricKind.PFNR, "accepts")):
        with pytest.raises(ValueError) as caught:
            ExperimentConfig(
                profile=profile10(),
                truth=frozenset({1, 2, 3}),
                rule=IntersectionRule(accept_barrier=2.0, reject_barrier=2.0),
                replications=10,
                master_seed=0,
                metrics=(metric,),
            )
        assert str(caught.value) == (
            f"{metric.value} needs a rule that {side} at least one stream: the "
            f"intersection rule rejects 0..10 of J = 10, {fails}"
        )


def test_config_validation_rejects_a_repeated_metric():
    """A metric listed twice would be echoed twice in the payload but
    estimated once."""
    with pytest.raises(ValueError, match=r"^metrics: repeated \['fdr'\]$"):
        gap_config(metrics=(MetricKind.FDR, MetricKind.FDR, MetricKind.FNR))


def test_config_validation_rejects_no_metrics():
    """Without a metric the run CSV would hold only its header, and lose
    the E[T] estimate with the rows."""
    with pytest.raises(ValueError, match=r"^metrics: need at least one"):
        replace(gap_config(), metrics=())


def test_config_validation_fpr_needs_signals():
    with pytest.raises(ValueError):
        ExperimentConfig(
            profile=profile10(),
            truth=frozenset(),
            rule=IntersectionRule(accept_barrier=2.0, reject_barrier=2.0),
            replications=10,
            master_seed=0,
            metrics=(MetricKind.FPR,),
        )


def test_config_validation_fixed_rules_gaussian_only():
    profile = StreamProfile.homogeneous(
        StreamModel(family="bernoulli", null=0.3, alt=0.6), 6
    )
    with pytest.raises(ValueError):
        ExperimentConfig(
            profile=profile,
            truth=frozenset({1}),
            rule=BhRule(sample_size=30, level=0.05),
            replications=10,
            master_seed=0,
        )


def test_config_truth_labels_validated():
    with pytest.raises(ValueError):
        ExperimentConfig(
            profile=profile10(j=4),
            truth=frozenset({9}),
            rule=GapRule(num_signals=1, threshold=2.0),
            replications=10,
            master_seed=0,
        )


def test_config_signal_mask_is_read_only_and_outside_the_fields():
    """The config builds its (J,) signal mask and its (J,) column of means
    once, read-only and outside the fields, so eq, hash, repr and
    serialization see only ``truth``; a pickled copy, as pool workers get,
    rebuilds both read-only."""
    config = gap_config(reps=10, m=3)
    names = {f.name for f in fields(config)}
    assert "signal" not in names and "means" not in names
    twin = gap_config(reps=10, m=3)
    assert config == twin and hash(config) == hash(twin)
    assert "signal=" not in repr(config) and "means=" not in repr(config)
    assert list(config_to_dict(config)) == [
        "streams", "truth", "rule", "replications", "master_seed", "horizon", "metrics"
    ]
    copy = pickle.loads(pickle.dumps(config))
    assert copy == config
    for c in (config, copy):
        np.testing.assert_array_equal(c.signal, [True] * 3 + [False] * 7)
        assert c.signal.dtype == bool
        assert c.means.dtype == float
        assert c.means.tobytes() == oracles.means(c.profile, c.truth).tobytes()
        np.testing.assert_array_equal(c.means, [0.5] * 3 + [0.0] * 7)
        for column, value in ((c.signal, False), (c.means, 1.0)):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = value


def test_horizon_hits_counted():
    config = ExperimentConfig(
        profile=profile10(),
        truth=frozenset(range(1, 6)),
        rule=GapRule(num_signals=5, threshold=1e9),
        replications=25,
        master_seed=0,
        horizon=40,
    )
    report = run_experiment(config)
    assert report.horizon_hits == 25
    assert report.mean_stopping_time.value == 40.0


# Rules on J = 10 that meet their thresholds at the first row, after a
# few blocks, or never.
SHARED_RULES = (
    GapRule(num_signals=5, threshold=1e-3),
    GapRule(num_signals=3, threshold=25.0),
    GapRule(num_signals=5, threshold=1e9),
    GapIntersectionRule(2, 7, 3.0, 3.0, 5.0, 5.0),
    GapIntersectionRule(0, 10, 1e9, 1e9, 1e9, 1e9),
    IntersectionRule(accept_barrier=1e-3, reject_barrier=1e-3),
    IntersectionRule(accept_barrier=25.0, reject_barrier=25.0),
)


@pytest.mark.parametrize("per_batch", [1, 3, None], ids=["one", "three", "default"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_a_shared_range_holds_each_configs_own_range(per_batch, data):
    """A range of K configs that differ only in their rule, each trial's
    path drawn once for all of them, gives each config, column for
    column, the range it gets alone, with one trial per batch, three, or
    the default cap, at horizons that end none, some or all trials."""
    shared_rules = data.draw(st.lists(st.sampled_from(SHARED_RULES), min_size=1, max_size=4))
    horizon = data.draw(st.sampled_from((1, 100, 300)), label="horizon")
    base = replace(
        gap_config(reps=20, seed=data.draw(st.integers(0, 2**64 - 1), label="seed")),
        horizon=horizon,
    )
    configs = tuple(replace(base, rule=rule) for rule in shared_rules)
    start = data.draw(st.integers(0, 8), label="start")
    stop = data.draw(st.integers(start + 1, start + 12), label="stop")
    k, j = len(configs), base.profile.j
    values = seqgap.engine._BATCH_VALUES if per_batch is None else per_batch * k * j
    with mock.patch.object(seqgap.engine, "_BATCH_VALUES", values):
        shared = seqgap.engine._run_range(configs, start, stop)
        alone = [seqgap.engine._run_range((config,), start, stop)[0] for config in configs]
    assert len(shared) == k
    for got, want in zip(shared, alone):
        assert got.stopping_time.tolist() == want.stopping_time.tolist()
        assert got.horizon_hit.tolist() == want.horizon_hit.tolist()
        assert oracles.rows(got.counts) == oracles.rows(want.counts)


@pytest.mark.parametrize("fixed_first", [False, True], ids=["gap-bh", "bh-gap"])
def test_run_experiments_rejects_mixed_rule_kinds(fixed_first, monkeypatch):
    """A sequential and a fixed-sample rule cannot share a run, in either
    order: a ValueError before any pool opens or any trial runs."""
    base = gap_config(reps=5)
    gap, bh = base.rule, BhRule(sample_size=10, level=0.05)
    monkeypatch.setattr(seqgap.engine, "worker_pool", None)
    monkeypatch.setattr(seqgap.engine, "_run_range", None)
    match = "^configs must not mix sequential and fixed-sample rules$"
    with pytest.raises(ValueError, match=match):
        seqgap.engine.run_experiments(
            base, [bh, gap] if fixed_first else [gap, bh], workers=2
        )


def test_run_experiments_needs_a_config(monkeypatch):
    """No rule is a ValueError before any work: no pool, no trial."""
    monkeypatch.setattr(seqgap.engine, "worker_pool", None)
    with pytest.raises(ValueError, match="^need at least one config$"):
        seqgap.engine.run_experiments(gap_config(reps=5), (), workers=2)


@pytest.mark.parametrize("per_batch", [1, 3, None], ids=["one", "three", "default"])
def test_sequential_range_columns_are_each_trials_decision(per_batch):
    """A range of sequential trials, counted a stack of masks at a time,
    holds trial by trial the stopping time, horizon flag and counts of
    each ``run_trial`` alone, also when the last stack is partial; the
    horizon ends some trials and the gap others."""
    config = gap_config(reps=11, threshold=3.0)
    config = replace(config, horizon=30)
    values = seqgap.engine._BATCH_VALUES if per_batch is None else per_batch * 10
    decisions = [run_trial(config, i) for i in range(2, 13)]
    with mock.patch.object(seqgap.engine, "_BATCH_VALUES", values):
        (trials,) = seqgap.engine._run_range((config,), 2, 13)
    assert trials.stopping_time.tolist() == [d.stopping_time for d in decisions]
    hits = [d.stopped_by == STOP_HORIZON for d in decisions]
    assert trials.horizon_hit.tolist() == hits
    assert 0 < sum(hits) < len(hits)
    assert oracles.rows(trials.counts) == [
        oracles.confusion(oracles.labels(d.rejected), config.truth, 10) for d in decisions
    ]


def test_rule_and_config_serialization_round_trip_fields():
    config = gap_config(reps=10)
    doc = config_to_dict(config)
    assert doc["rule"] == {"type": "gap", "num_signals": 5, "threshold": 2.1}
    assert doc["streams"]["count"] == 10
    assert doc["truth"] == [1, 2, 3, 4, 5]
    gi = GapIntersectionRule(
        min_signals=1,
        max_signals=4,
        accept_barrier=2.0,
        reject_barrier=2.5,
        accept_gap=3.0,
        reject_gap=3.5,
    )
    # Serialized bytes, key order included, for every rule type.
    expected = [
        (
            GapRule(num_signals=5, threshold=2.1),
            '{"type": "gap", "num_signals": 5, "threshold": 2.1}',
        ),
        (
            gi,
            '{"type": "gap-intersection", "min_signals": 1, "max_signals": 4, '
            '"accept_barrier": 2.0, "reject_barrier": 2.5, "accept_gap": 3.0, '
            '"reject_gap": 3.5}',
        ),
        (
            IntersectionRule(accept_barrier=5.0, reject_barrier=4.5),
            '{"type": "intersection", "accept_barrier": 5.0, "reject_barrier": 4.5}',
        ),
        (
            BhRule(sample_size=52, level=0.05),
            '{"type": "bh", "sample_size": 52, "level": 0.05}',
        ),
        (
            TopMRule(sample_size=9, num_signals=2),
            '{"type": "top-m", "sample_size": 9, "num_signals": 2}',
        ),
    ]
    for rule, text in expected:
        assert json.dumps(rule_to_dict(rule)) == text


def test_reproduce_table_subset_and_rows():
    report = reproduce_table("table1", rows=[5], replications=150, master_seed=3)
    assert report.j == 10
    assert len(report.rows) == 1
    row = report.rows[0]
    assert row.num_signals == 5
    assert row.threshold == 2.1
    assert row.bh_sample_size == 52
    assert row.topm_sample_size == 37
    assert 0 < row.gap_et.value < 52
    assert row.bh_savings == pytest.approx(1 - row.gap_et.value / 52)


def test_reproduce_table_unknown_row_rejected():
    with pytest.raises(ValueError):
        reproduce_table("table1", rows=[4, 11], replications=10)
    with pytest.raises(ValueError):
        reproduce_table("table9", rows=[1])


def test_reproduce_table_repeated_row_rejected():
    """A row listed twice is rejected, in the command line's words."""
    rows = r"\[1, 2, 3, 4, 5, 6, 7, 8, 9\]"
    with pytest.raises(ValueError, match=rf"^repeated \[5\]; table1 has rows {rows}$"):
        reproduce_table("table1", rows=[5, 5], replications=10)


def test_reproduce_table_empty_rows():
    report = reproduce_table("table1", rows=[], replications=10)
    assert report.rows == ()
