"""Tests for the Monte Carlo engine: seeding, determinism, aggregation."""

import json
import math
import pickle
import sys
import threading
from dataclasses import fields, replace
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
    derive_seed,
    reproduce_table,
    run_experiment,
    run_trial,
    trial_rng,
)
from seqgap.engine import config_to_dict, fixed_sample_pvalues, rule_to_dict
from seqgap.rules import STOP_GAP


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
    """A generator rekeyed after use draws what a new one of that key draws."""
    shared = trial_rng(derive_seed(master_seed, 1), 3)
    # An odd count of 32-bit draws leaves half a 64-bit word held back, and
    # 1 to 3 words of the last four-word Philox buffer read.
    shared.integers(2**32, size=8 * buffers + 2 * words + 1, dtype=np.uint32)
    state = shared.bit_generator.state
    assert state["has_uint32"] == 1 and 0 < state["buffer_pos"] < 4
    rekeyed = trial_rng(master_seed, trial_index, shared)
    assert rekeyed is shared
    fresh = trial_rng(master_seed, trial_index)
    assert rekeyed.bit_generator.state["has_uint32"] == 0
    # Odd lengths and a span past one buffer cover the held-back word and a
    # buffer refill.
    for size in (1, 3, 8, 1):
        assert rekeyed.random(size).tobytes() == fresh.random(size).tobytes()
    assert rekeyed.integers(2**32, dtype=np.uint32) == fresh.integers(
        2**32, dtype=np.uint32
    )
    assert rekeyed.random(5).tobytes() == fresh.random(5).tobytes()


def test_trial_rng_validates_seed_range():
    with pytest.raises(ValueError):
        trial_rng(-1, 0)
    with pytest.raises(ValueError):
        trial_rng(2**64, 0)


def test_derive_seed_is_stable_and_path_dependent():
    assert derive_seed(5, 1, 2) == derive_seed(5, 1, 2)
    assert derive_seed(5, 1, 2) != derive_seed(5, 2, 1)
    assert derive_seed(5, 1) != derive_seed(6, 1)


def test_run_trial_deterministic():
    config = gap_config()
    first = run_trial(config, 3)
    second = run_trial(config, 3)
    assert first == second


def test_run_trial_in_two_threads_matches_one_thread():
    """Each thread rekeys its own generator, so threads cannot mix draws."""
    config = gap_config()
    expected = [run_trial(config, i) for i in range(200)]
    got = [None] * 200
    start = threading.Barrier(2)

    def run(first):
        start.wait()
        for i in range(first, 200, 2):
            got[i] = run_trial(config, i)

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
        record = run_trial(config, i)
        assert record.counts.r == 5
        assert record.stopped_by == STOP_GAP


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
    for i in range(config.replications):
        counts = run_trial(config, i).counts
        assert counts.w + counts.r - counts.v == len(truth)


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
        # Not a multiple of one trial's values, so the cap is rounded down.
        values = per_batch * n * j + n * j - 1
    else:
        values = seqgap.engine._FIXED_BATCH_VALUES
    expected = [oracles.fixed_trial(config, i) for i in range(reps)]
    with mock.patch.object(seqgap.engine, "_FIXED_BATCH_VALUES", values):
        assert seqgap.engine._run_range(config, 0, reps) == expected
        assert [run_trial(config, i) for i in range(reps)] == expected


@pytest.mark.parametrize("j", [2, 10, 100, 1000])
def test_batch_totals_are_each_trials_left_fold_over_its_rows(j):
    """The premise under a batch's totals: numpy sums a (B, n, J) stack over
    axis 1 exactly as it sums each trial's (n, J) block over axis 0, a left
    fold over the rows, bit for bit, also across mixed magnitudes, where
    another summation order would round differently.  A cumulative sum
    over axis 0 is the same fold: its last row and an interior prefix row
    equal the fold's total and partial total."""
    rng = np.random.default_rng(j)
    for n in (1, 2, 7, 64, 1000, 3000 if j < 1000 else 1000):
        block = rng.standard_normal((2, n, j)) * 10.0 ** rng.integers(
            -8, 9, size=(2, n, j)
        )
        totals = block.sum(axis=1)
        for trial, x in zip(totals, block):
            cumulative = np.cumsum(x, axis=0)
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

    with pytest.raises(ValueError, match="min_signals >= 1"):
        build(0, 5, MetricKind.PFDR)
    with pytest.raises(ValueError, match="max_signals <= J - 1"):
        build(1, 10, MetricKind.PFNR)
    build(1, 9, MetricKind.PFDR)  # interior bracket is fine
    build(1, 9, MetricKind.PFNR)
    for metric in (MetricKind.PFDR, MetricKind.PFNR):
        with pytest.raises(ValueError, match="conditioning event can fail"):
            ExperimentConfig(
                profile=profile10(),
                truth=frozenset({1, 2, 3}),
                rule=IntersectionRule(accept_barrier=2.0, reject_barrier=2.0),
                replications=10,
                master_seed=0,
                metrics=(metric,),
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
    """The config builds its (J,) signal mask once, read-only and outside
    the fields, so eq, hash, repr and serialization see only ``truth``; a
    pickled copy, as pool workers get, rebuilds it read-only."""
    config = gap_config(reps=10, m=3)
    assert "signal" not in {f.name for f in fields(config)}
    twin = gap_config(reps=10, m=3)
    assert config == twin and hash(config) == hash(twin)
    assert "signal=" not in repr(config)
    assert list(config_to_dict(config)) == [
        "streams", "truth", "rule", "replications", "master_seed", "horizon", "metrics"
    ]
    copy = pickle.loads(pickle.dumps(config))
    assert copy == config
    for c in (config, copy):
        np.testing.assert_array_equal(c.signal, [True] * 3 + [False] * 7)
        assert c.signal.dtype == bool
        with pytest.raises(ValueError, match="read-only"):
            c.signal[0] = False


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
