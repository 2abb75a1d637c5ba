"""The references of ``tests/exact.py``: the fixed-sample baselines'
exact error rates, checked against a plain simulation, and the J = 2 gap
rule against Siegmund's second-order constants."""

import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtr

import exact
import oracles
import seqgap.engine
from seqgap import (
    GAUSSIAN_MEAN,
    BhRule,
    ExperimentConfig,
    GapRule,
    MetricKind,
    StreamModel,
    StreamProfile,
    TopMRule,
    run_experiment,
    trial_rng,
)
from seqgap.thresholds import ErrorBudget

THETA = 0.5
DELTA = math.sqrt(2.0) * THETA  # the swap walk's Delta, Delta^2 = 2 theta^2
LEVEL = 0.05

# table1's rows at J = 10: m -> (BH n, top-m n).
TABLE1_SIZES = {1: (70, 50), 5: (52, 37), 9: (65, 50)}


def _shift(n: int) -> float:
    return math.sqrt(n) * THETA


def _plain_pvalues(m: int, n: int, reps: int, seed: int) -> np.ndarray:
    """(reps, 10) one-sided p-values of plain z-scores, N(0, 1) on the
    nulls and N(sqrt(n) theta, 1) on the first m columns, the signals."""
    z = np.random.default_rng(seed).standard_normal((reps, 10))
    z[:, :m] += _shift(n)
    return ndtr(-z)


def _rates(p: np.ndarray, m: int, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial FDR and FNR contributions when each trial rejects its r
    smallest p-values."""
    j = p.shape[1]
    order = np.argsort(p, axis=1, kind="stable")
    rejected = np.arange(j) < r[:, None]  # in p-value order
    v = np.count_nonzero(rejected & (order >= m), axis=1)
    w = m - np.count_nonzero(rejected & (order < m), axis=1)
    return v / np.maximum(r, 1), w / np.maximum(j - r, 1)


def _plain_bh(p: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Step-up BH's per-trial contributions, R the largest k with
    p_(k) <= k level / J."""
    j = p.shape[1]
    passing = np.sort(p, axis=1) <= LEVEL * np.arange(1, j + 1) / j
    r = np.where(passing.any(axis=1), j - np.argmax(passing[:, ::-1], axis=1), 0)
    return _rates(p, m, r)


def _z(sample: np.ndarray, exact_value: float) -> float:
    return (sample.mean() - exact_value) / (sample.std(ddof=1) / math.sqrt(sample.size))


@pytest.mark.parametrize("m", sorted(TABLE1_SIZES))
def test_engine_baselines_match_their_exact_rates(m):
    """At table1's rows m = 1, 5, 9 and 40,000 replications, the engine's
    top-m FDR and BH FNR lie within 4 se of their exact values.  The seeds
    were fixed before the runs were first looked at."""
    bh_n, topm_n = TABLE1_SIZES[m]
    profile = StreamProfile.homogeneous(StreamModel(GAUSSIAN_MEAN, 0.0, THETA), 10)
    truth = frozenset(range(1, m + 1))
    bh = run_experiment(
        ExperimentConfig(profile, truth, BhRule(bh_n, LEVEL), 40_000, 20_261_022 + m)
    ).metrics[MetricKind.FNR]
    topm = run_experiment(
        ExperimentConfig(profile, truth, TopMRule(topm_n, m), 40_000, 20_261_122 + m)
    ).metrics[MetricKind.FDR]
    _, bh_fnr = exact.bh_rates(10, m, _shift(bh_n), LEVEL)
    topm_fdr = exact.top_m_false_rejections(10, m, _shift(topm_n)) / m
    assert abs(bh.value - bh_fnr) <= 4 * bh.se, (bh, bh_fnr)
    assert abs(topm.value - topm_fdr) <= 4 * topm.se, (topm, topm_fdr)


def test_batch_totals_have_the_law_of_row_sums(monkeypatch):
    """The totals the batch path hands to ``fixed_sample_pvalues``, drawn
    from one uniform per stream, against the sums of n observation rows
    drawn by ``oracles.sample_block`` on other keys, stream by stream: a
    null and a signal stream, an alternative above and one below the null.
    At 4,000 trials a side, each two-sample Kolmogorov-Smirnov statistic
    is below its 0.1% critical value, 1.949 sqrt(2 / 4,000) = 0.0436, at
    these fixed seeds."""
    profile = StreamProfile(
        (
            StreamModel(GAUSSIAN_MEAN, 0.0, 0.5),
            StreamModel(GAUSSIAN_MEAN, 0.0, 0.5),
            StreamModel(GAUSSIAN_MEAN, 1.0, -0.5),
            StreamModel(GAUSSIAN_MEAN, 1.0, -0.5),
        )
    )
    n, reps = 37, 4_000
    config = ExperimentConfig(profile, frozenset({1, 3}), TopMRule(n, 2), reps, 11)
    totals, pvalues = [], seqgap.engine.fixed_sample_pvalues

    def recording(profile, batch_totals, n):
        totals.append(np.array(batch_totals))
        return pvalues(profile, batch_totals, n)

    monkeypatch.setattr(seqgap.engine, "fixed_sample_pvalues", recording)
    seqgap.engine._run_range((config,), 0, reps)
    monkeypatch.undo()
    batch = np.concatenate(totals)
    means = oracles.means(profile, config.truth)
    rows = np.array(
        [
            oracles.sample_block(profile, means, n, trial_rng(12, i)).sum(axis=0)
            for i in range(reps)
        ]
    )
    assert batch.shape == rows.shape == (reps, 4)
    bound = 1.949 * math.sqrt(2 / reps)
    for stream in range(4):
        assert stats.ks_2samp(batch[:, stream], rows[:, stream]).statistic < bound


@pytest.mark.parametrize("m", range(11))
@pytest.mark.parametrize("n", [1, 52])
def test_bh_recursion_fdr_is_the_null_share_of_its_level(m, n):
    """With independent, exactly uniform null p-values, step-up BH has
    FDR = (J - m) / J * level whatever the signals do (Benjamini &
    Yekutieli, 2001), so the recursion must give it to rounding."""
    fdr, fnr = exact.bh_rates(10, m, _shift(n), LEVEL)
    assert fdr == pytest.approx((10 - m) / 10 * LEVEL, abs=1e-14)
    assert 0.0 <= fnr <= 1.0
    if m == 0:
        assert fnr == 0.0


def test_bh_recursion_gives_the_recorded_table1_rates():
    """BH's FNR at table1's rows m = 1, 5, 9 (n = 70, 52, 65)."""
    fnr = {
        m: exact.bh_rates(10, m, _shift(n), LEVEL)[1]
        for m, (n, _) in TABLE1_SIZES.items()
    }
    assert fnr[1] == pytest.approx(0.005211, abs=5e-7)
    assert fnr[5] == pytest.approx(0.041601, abs=5e-7)
    assert fnr[9] == pytest.approx(0.044308, abs=5e-7)


def test_top_m_quadrature_gives_the_recorded_table1_rates():
    """Top-m's FDR at table1's rows m = 1, 5, 9 (n = 50, 37, 50); the rows
    m and J - m mirror each other, FDR of one the FNR of the other."""
    fdr = {
        m: exact.top_m_false_rejections(10, m, _shift(n)) / m
        for m, (_, n) in TABLE1_SIZES.items()
    }
    assert fdr[1] == pytest.approx(0.040732, abs=5e-7)
    assert fdr[5] == pytest.approx(0.045017, abs=5e-7)
    assert fdr[9] == pytest.approx(0.0045258, abs=5e-8)
    fnr_at_9 = exact.top_m_false_rejections(10, 9, _shift(50)) / (10 - 9)
    assert fnr_at_9 == pytest.approx(fdr[1], rel=1e-9)


@pytest.mark.parametrize("m", sorted(TABLE1_SIZES))
def test_baseline_references_match_a_plain_simulation(m):
    """200,000 plain draws of z-scores, no engine: BH's FDR and FNR and
    top-m's FDR lie within 4 se of the references.  The seeds were fixed
    before the draws were first looked at."""
    bh_n, topm_n = TABLE1_SIZES[m]
    fdr, fnr = _plain_bh(_plain_pvalues(m, bh_n, 200_000, 20_261_022 + m), m)
    exact_fdr, exact_fnr = exact.bh_rates(10, m, _shift(bh_n), LEVEL)
    assert abs(_z(fdr, exact_fdr)) <= 4
    assert abs(_z(fnr, exact_fnr)) <= 4
    p = _plain_pvalues(m, topm_n, 200_000, 20_261_122 + m)
    topm_fdr, _ = _rates(p, m, np.full(len(p), m))
    exact_topm_fdr = exact.top_m_false_rejections(10, m, _shift(topm_n)) / m
    assert abs(_z(topm_fdr, exact_topm_fdr)) <= 4


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
