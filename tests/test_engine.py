"""Tests for the Monte Carlo engine: seeding, determinism, aggregation."""

import json
import math

import numpy as np
import pytest
from scipy.special import ndtr

from oracles import p_value
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


def test_reproduce_table_empty_rows():
    report = reproduce_table("table1", rows=[], replications=10)
    assert report.rows == ()
