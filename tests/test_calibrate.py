"""Tests for Monte Carlo threshold and sample-size calibration."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqgap import (
    GAUSSIAN_MEAN,
    BhRule,
    CalibrationError,
    CalibrationSettings,
    ErrorBudget,
    ExperimentConfig,
    GapRule,
    MetricKind,
    StreamModel,
    StreamProfile,
    TopMRule,
    calibrate_bh_n,
    calibrate_gap_c,
    calibrate_topm_n,
)
from seqgap.calibrate import _bracket_min_feasible


def small_profile(j=6, theta=0.6):
    return StreamProfile.homogeneous(
        StreamModel(family=GAUSSIAN_MEAN, null=0.0, alt=theta), j
    )


TRUTH = frozenset({1, 2, 3})
# The searches replace the threshold or sample size these rules carry.
GAP = GapRule(num_signals=3, threshold=1.0)
TOPM = TopMRule(sample_size=1, num_signals=3)
BH = BhRule(sample_size=1, level=0.05)


def config(rule, replications, seed, profile=None, truth=TRUTH):
    return ExperimentConfig(
        profile=profile or small_profile(),
        truth=truth,
        rule=rule,
        replications=replications,
        master_seed=seed,
    )


def test_calibrate_gap_c_reproducible():
    args = (config(GAP, 400, 5), CalibrationSettings(), ErrorBudget(0.05, 0.05))
    a = calibrate_gap_c(*args)
    b = calibrate_gap_c(*args)
    assert a == b
    assert a.chosen > 0
    assert [p.point for p in a.probes] == [p.point for p in b.probes]


def test_calibrate_gap_c_feasible_at_choice():
    result = calibrate_gap_c(
        config(GAP, 400, 5), CalibrationSettings(), ErrorBudget(0.05, 0.05)
    )
    # the search probe at the chosen point met both targets
    final_probe = [p for p in result.probes if p.point == result.chosen]
    assert final_probe
    est = final_probe[-1].estimates
    assert est[MetricKind.FDR].value <= 0.05
    assert est[MetricKind.FNR].value <= 0.05
    # the fresh evaluation uses a different seed than the search
    assert result.evaluation_seed != result.search_seed
    assert set(result.achieved) == {MetricKind.FDR, MetricKind.FNR}


def test_calibrate_gap_c_minimality_on_grid():
    """The grid point one step below the choice is infeasible."""
    result = calibrate_gap_c(
        config(GAP, 400, 5),
        CalibrationSettings(grid_step=0.25),
        ErrorBudget(0.05, 0.05),
    )
    by_point = {p.point: p.estimates for p in result.probes}
    below = round(result.chosen - 0.25, 12)
    if below > 0:
        assert below in by_point
        est = by_point[below]
        assert (
            est[MetricKind.FDR].value > 0.05 or est[MetricKind.FNR].value > 0.05
        )


def test_calibrate_gap_c_vacuous_targets_choose_smallest_point():
    result = calibrate_gap_c(
        config(GAP, 100, 2),
        CalibrationSettings(grid_step=0.5),
        ErrorBudget(0.999, 0.999),
    )
    assert result.chosen == pytest.approx(0.5)


def test_calibrate_gap_c_cap_exceeded_raises_with_trace():
    with pytest.raises(CalibrationError) as err:
        calibrate_gap_c(
            # nearly indistinguishable streams
            config(GAP, 60, 1, profile=small_profile(theta=0.05)),
            CalibrationSettings(threshold_cap=2.0),
            ErrorBudget(0.001, 0.001),
        )
    assert err.value.probes  # the probe trace travels with the error
    assert all(p.point <= 2.0 for p in err.value.probes)


def test_calibrate_topm_n_reproducible_and_sane():
    args = (config(TOPM, 400, 5), CalibrationSettings(), ErrorBudget(0.05, 0.05))
    a = calibrate_topm_n(*args)
    assert a == calibrate_topm_n(*args)
    assert isinstance(a.chosen, int)
    assert 1 <= a.chosen <= 200


def test_calibrate_topm_n_full_scan_matches_bracketing_here():
    """FDR/FNR fall monotonically in n, so both strategies agree."""
    experiment, budget = config(TOPM, 300, 8), ErrorBudget(0.1, 0.1)

    def chosen(full_scan):
        settings = CalibrationSettings(sample_size_cap=100, full_scan=full_scan)
        return calibrate_topm_n(experiment, settings, budget).chosen

    assert chosen(False) == chosen(True)


def test_calibrate_bh_n_targets_fnr():
    result = calibrate_bh_n(
        config(BH, 500, 13, profile=small_profile(j=8), truth=frozenset({1, 2, 3, 4})),
        CalibrationSettings(),
        ErrorBudget(0.05, 0.05),
    )
    assert isinstance(result.chosen, int)
    # chosen sample size comes from the two candidates around the crossing,
    # whichever estimated FNR lands nearest the target
    by_point = {p.point: p.estimates for p in result.probes}
    assert result.chosen in by_point
    crossing_gap = abs(by_point[result.chosen][MetricKind.FNR].value - 0.05)
    neighbor = result.chosen - 1
    if neighbor in by_point:
        assert crossing_gap <= abs(by_point[neighbor][MetricKind.FNR].value - 0.05)


def test_calibrate_bh_n_cap_exceeded():
    with pytest.raises(CalibrationError):
        calibrate_bh_n(
            config(BH, 50, 1, profile=small_profile(theta=0.02)),
            CalibrationSettings(sample_size_cap=32),
            ErrorBudget(0.05, 0.01),
        )


def test_calibrate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        CalibrationSettings(grid_step=0.0)
    with pytest.raises(ValueError, match="beta must be in"):
        ErrorBudget(0.05, 1.5)  # the FNR target of the bh search


@pytest.mark.parametrize(
    "search,rule",
    [(calibrate_gap_c, TOPM), (calibrate_topm_n, BH), (calibrate_bh_n, TOPM)],
    ids=["gap-of-top-m", "top-m-of-bh", "bh-of-top-m"],
)
def test_each_search_needs_its_own_rule_type(search, rule):
    """A search refuses a config whose rule it does not calibrate, before it
    probes, instead of searching another rule's sample size."""
    settings = CalibrationSettings()
    with pytest.raises(ValueError, match=f"needs a .* rule, got {rule.name!r}$"):
        search(config(rule, 10, 0), settings, ErrorBudget(0.05, 0.05))


@pytest.mark.parametrize(
    "override",
    [{"grid_step": math.inf}, {"threshold_cap": math.inf}, {"threshold_cap": math.nan}],
    ids=repr,
)
def test_calibrate_gap_c_rejects_a_non_finite_grid(override):
    (name,) = override
    with pytest.raises(ValueError, match=f"^{name} must be finite and positive"):
        CalibrationSettings(**override)


def _min_feasible(cap: int, first: int | None, full_scan: bool):
    """The search's index for the predicate ``i >= first`` (never true when
    ``first`` is None), or its error message.  Every probe must lie on the
    grid 1..cap, and the bracketed search may take about 2 log2(cap) probes:
    doubling, then bisection."""
    limit = cap if full_scan else 2 * max(cap, 1).bit_length() + 2
    probes = []

    def feasible(i: int) -> bool:
        assert 1 <= i <= cap and len(probes) < limit, (i, probes)
        probes.append(i)
        return first is not None and i >= first

    try:
        return _bracket_min_feasible(feasible, cap, "the grid", full_scan)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=500, deadline=None)
@given(cap=st.integers(-2, 300), data=st.data())
def test_bracketed_search_matches_the_full_scan(cap, data):
    """Doubling and bisection find the full scan's index on any monotone
    predicate, or fail with the same message when no point is feasible."""
    first = data.draw(st.none() | st.integers(1, max(cap, 1) + 1), label="first")
    found = _min_feasible(cap, first, full_scan=False)
    assert found == _min_feasible(cap, first, full_scan=True)
    if first is not None and first <= cap:
        assert found == first
    else:
        assert isinstance(found, str)
