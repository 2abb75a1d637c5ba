"""The J = 2 gap rule against Siegmund's second-order constants
(``tests/exact.py``)."""

import math

import pytest

import exact
from seqgap import (
    GAUSSIAN_MEAN,
    ExperimentConfig,
    GapRule,
    MetricKind,
    StreamModel,
    StreamProfile,
    run_experiment,
)
from seqgap.thresholds import ErrorBudget

THETA = 0.5
DELTA = math.sqrt(2.0) * THETA  # the swap walk's Delta, Delta^2 = 2 theta^2


def test_series_are_summed_to_double_precision():
    """2,000 terms give the sums of 200,000 at theta = 0.5, and the values
    recorded for this theta."""
    assert exact.nu(DELTA) == pytest.approx(exact.nu(DELTA, 200_000), rel=1e-15)
    assert exact.rho(DELTA) == pytest.approx(exact.rho(DELTA, 200_000), rel=1e-15)
    assert exact.nu(DELTA) == pytest.approx(0.663160, abs=5e-7)
    assert exact.rho(DELTA) == pytest.approx(0.478119, abs=5e-7)


def test_gap_rule_mean_stopping_time_carries_the_overshoot_at_j2():
    """At J = 2, m = 1 and the formula threshold of alpha = beta = 1e-4
    (c = |log 1e-4|), E[T] is (c + rho) / theta^2 to second order: the
    estimate lies within 3 se of it, and the first-order benchmark kappa =
    c / theta^2 more than 4 se below the estimate.  The seed was fixed
    before the run was first looked at."""
    profile = StreamProfile.homogeneous(StreamModel(GAUSSIAN_MEAN, 0.0, THETA), 2)
    truth = frozenset({1})
    budget = ErrorBudget(1e-4, 1e-4)
    rule = GapRule(num_signals=1, threshold=1.0).at_budget(
        budget, profile.j, truth, MetricKind.FDR
    )
    c = rule.threshold
    assert c == pytest.approx(math.log(1e4), rel=1e-12)
    kappa = rule.kappa(budget, profile, truth)
    assert kappa == pytest.approx(c / THETA**2, rel=1e-12)
    second_order = (c + exact.rho(DELTA)) / THETA**2
    assert second_order == pytest.approx(38.754, abs=5e-4)

    config = ExperimentConfig(profile, truth, rule, 4_000, 20_261_020)
    mean = run_experiment(config).mean_stopping_time
    assert abs(mean.value - second_order) <= 3 * mean.se
    assert mean.value - kappa > 4 * mean.se
