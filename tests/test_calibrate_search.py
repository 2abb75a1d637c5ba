"""The resumable gap-threshold search against the probe-by-probe oracle.

``oracle_calibrate_gap_c`` is the search as it was written before trials
became resumable: every probe reruns the whole experiment from step 0
through ``run_experiment``, and it takes the search's inputs as keywords.
The library's ``calibrate_gap_c`` takes them as an ``ExperimentConfig`` and
``CalibrationSettings`` built from the same keywords, samples each search
trial once, and must give the same result, or fail with the same exception,
message and probe trace, on every input the constructors accept.  An input
the oracle rejects before its first probe, the constructors (or the worker
check) reject with the oracle's message.
"""

import math
import re
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import seqgap.calibrate
from oracles import means, one_shot_path
from seqgap import (
    BERNOULLI,
    GAUSSIAN_MEAN,
    CalibrationError,
    CalibrationSettings,
    ErrorBudget,
    MetricKind,
    StreamModel,
    StreamProfile,
    calibrate_gap_c,
)
from seqgap.calibrate import _EVALUATION_TAG, CalibrationProbe, CalibrationResult
from seqgap.engine import ExperimentConfig, derive_seed, run_experiment
from seqgap.rules import GapRule

# --- oracle: the probe-by-probe search, every check intact ---


def _bracket_min_feasible(feasible, cap_index, describe, full_scan):
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


def oracle_calibrate_gap_c(
    profile,
    truth,
    num_signals,
    budget,
    replications=10_000,
    seed=0,
    grid_step=0.1,
    threshold_cap=50.0,
    horizon=None,
    workers=1,
    full_scan=False,
):
    for name, value in (("grid_step", grid_step), ("threshold_cap", threshold_cap)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    kwargs = {} if horizon is None else {"horizon": horizon}

    def point(index):
        return round(index * grid_step, 12)

    def make_config(index, master_seed):
        return ExperimentConfig(
            profile=profile,
            truth=truth,
            rule=GapRule(num_signals=num_signals, threshold=point(index)),
            replications=replications,
            master_seed=master_seed,
            metrics=(MetricKind.FDR, MetricKind.FNR),
            **kwargs,
        )

    cache = {}
    order = []

    def estimates_at(index):
        if index not in cache:
            report = run_experiment(make_config(index, seed), workers=workers)
            cache[index] = report.metrics
            order.append(index)
        return cache[index]

    def probes():
        return tuple(
            CalibrationProbe(point=point(i), estimates=cache[i]) for i in order
        )

    def feasible(index):
        est = estimates_at(index)
        return (
            est[MetricKind.FDR].value <= budget.alpha
            and est[MetricKind.FNR].value <= budget.beta
        )

    cap_index = int(threshold_cap / grid_step + 1e-9)
    grid = f"thresholds {grid_step:g}, {2 * grid_step:g}, ... capped at {threshold_cap:g}"
    try:
        chosen = _bracket_min_feasible(feasible, cap_index, grid, full_scan)
    except ValueError as exc:
        raise CalibrationError(str(exc), probes=probes()) from exc
    evaluation_seed = derive_seed(seed, _EVALUATION_TAG)
    achieved = run_experiment(
        make_config(chosen, evaluation_seed), workers=workers
    ).metrics
    return CalibrationResult(
        chosen=point(chosen),
        achieved=achieved,
        replications=replications,
        grid=grid,
        search_seed=seed,
        evaluation_seed=evaluation_seed,
        probes=probes(),
    )


def outcome(calibrate, *args, **kwargs):
    """The result, or the exception's type, message and probe trace."""
    try:
        return calibrate(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the comparison is the test
        return type(exc), str(exc), getattr(exc, "probes", None)


def library_config(profile, truth, num_signals, replications, seed, horizon, **_):
    """The oracle's arguments as the library's experiment config; the search
    replaces the rule's threshold."""
    return ExperimentConfig(
        profile=profile,
        truth=truth,
        rule=GapRule(num_signals=num_signals, threshold=1.0),
        replications=replications,
        master_seed=seed,
        **({} if horizon is None else {"horizon": horizon}),
    )


def library_settings(grid_step, threshold_cap, full_scan, **_):
    return CalibrationSettings(
        grid_step=grid_step, threshold_cap=threshold_cap, full_scan=full_scan
    )


def assert_same_as_oracle(**kwargs):
    """The library, fed the config and settings built from the oracle's
    arguments, gives the oracle's result or search failure bit for bit.  An
    argument the oracle rejects before its first probe fails with a plain
    ValueError, before any search, with the oracle's message; a grid that
    CalibrationSettings rejects adds the settings it names in front."""
    want = outcome(oracle_calibrate_gap_c, **kwargs)
    try:
        args = (library_config(**kwargs), library_settings(**kwargs))
    except ValueError as exc:
        got = type(exc), str(exc), None
    else:
        got = outcome(calibrate_gap_c, *args, kwargs["budget"], kwargs["workers"])
    if isinstance(want, tuple) and not want[2]:
        assert got[0] is ValueError and got[2] is None, got
        assert got[1] == want[1] or got[1].endswith(f": {want[1]}"), (want, got)
    else:
        assert got == want
    return got


# --- the property ---

MODELS = {
    "gaussian": StreamModel(GAUSSIAN_MEAN, null=0.0, alt=0.8),
    "bernoulli": StreamModel(BERNOULLI, null=0.3, alt=0.7),  # ties in the order
}


@st.composite
def search_cases(draw):
    j = draw(st.integers(2, 8))
    m = draw(st.integers(1, j - 1))
    model = MODELS[draw(st.sampled_from(sorted(MODELS)))]
    level = st.sampled_from([0.001, 0.05, 0.3, 0.9])
    return dict(
        profile=StreamProfile.homogeneous(model, j),
        truth=draw(
            st.just(frozenset(range(1, m + 1))) | st.frozensets(st.integers(1, j))
        ),
        num_signals=m,
        budget=ErrorBudget(draw(level), draw(level)),
        replications=draw(st.integers(1, 25)),
        seed=draw(st.integers(0, 2**64 - 1)),
        grid_step=draw(st.sampled_from([0.1, 0.25, 0.7])),
        threshold_cap=draw(st.sampled_from([0.5, 2.0, 5.0])),
        horizon=draw(st.sampled_from([1, 5, 100, None])),
        workers=1,
        full_scan=draw(st.booleans()),
    )


def _case(j, truth, m, alpha, cap, horizon, full_scan=False, family="gaussian"):
    return dict(
        profile=StreamProfile.homogeneous(MODELS[family], j),
        truth=frozenset(truth),
        num_signals=m,
        budget=ErrorBudget(alpha, alpha),
        replications=20,
        seed=7,
        grid_step=0.25,
        threshold_cap=cap,
        horizon=horizon,
        workers=1,
        full_scan=full_scan,
    )


@settings(max_examples=100, deadline=None)
@given(case=search_cases())
@example(case=_case(6, {1, 2, 3}, 3, 0.05, 5.0, 100))  # 100 is not a block multiple
@example(case=_case(6, {1, 2}, 3, 0.05, 5.0, None, full_scan=True))  # |truth| != m
@example(case=_case(5, (), 2, 0.05, 5.0, 5))  # empty truth
@example(case=_case(6, {1, 2, 3}, 3, 0.001, 0.5, None))  # cap exceeded
@example(case=_case(4, {1, 2}, 2, 0.001, 2.0, 1, family="bernoulli"))
def test_resumable_search_matches_the_oracle(case):
    assert_same_as_oracle(**case)


# A weak signal, whose paths need several blocks to reach the thresholds.
WEAK = StreamProfile.homogeneous(StreamModel(GAUSSIAN_MEAN, null=0.0, alt=0.2), 3)


@pytest.mark.parametrize("cap", ["one value", "mid", "default"])
@settings(max_examples=30, deadline=None)
@given(case=search_cases())
@example(case={**_case(8, {1, 2, 3, 4}, 4, 0.05, 5.0, None), "replications": 150})
@example(case={**_case(3, {1}, 1, 0.01, 5.0, 300), "profile": WEAK, "replications": 60})
@example(case={**_case(3, {1}, 1, 0.001, 5.0, None), "profile": WEAK, "replications": 60})
@example(case=_case(4, {1, 2}, 2, 0.05, 5.0, 70, family="bernoulli"))
def test_search_batches_match_the_oracle_at_any_value_cap(cap, case):
    """The search's batches, cut at one trial's block, at a few trials'
    blocks or at the default cap, give the oracle's result or failure bit
    for bit.  The examples split the default cap's first batch (150 trials
    of J = 8), and extend weak-signal trials through four blocks, with
    trials at different blocks in one probe and the horizon cutting the
    third block to 108 rows."""
    values = {"one value": 1, "mid": 700, "default": seqgap.calibrate._SEARCH_VALUES}
    with mock.patch.object(seqgap.calibrate, "_SEARCH_VALUES", values[cap]):
        assert_same_as_oracle(**case)


def test_oracle_cases_reach_both_outcomes():
    """The explicit examples above reach a result and an exceeded cap."""
    found = assert_same_as_oracle(**_case(6, {1, 2, 3}, 3, 0.05, 5.0, 100))
    assert isinstance(found, CalibrationResult)
    failed = assert_same_as_oracle(**_case(6, {1, 2, 3}, 3, 0.001, 0.5, None))
    assert failed[0] is CalibrationError and failed[2]
    assert failed[1].startswith("no feasible point up to the cap")


@pytest.mark.parametrize(
    "override",
    [
        {"grid_step": 0.0},
        {"grid_step": -0.1},
        {"grid_step": math.nan},
        {"grid_step": 1e-13},  # the first grid point rounds to 0
        {"threshold_cap": 0.05},  # no grid point under the cap
        {"threshold_cap": math.inf},
        {"threshold_cap": math.nan},
        {"num_signals": 0},
        {"num_signals": 6},
        {"replications": 0},
        {"seed": -1},
        {"seed": 2**64},
        {"horizon": 0},
        {"workers": 0},
        {"truth": frozenset({0, 1})},
        {"truth": frozenset({7})},
    ],
    ids=repr,
)
def test_invalid_arguments_fail_as_the_oracle_does(override):
    case = {**_case(6, {1, 2, 3}, 3, 0.05, 5.0, None), **override}
    got = assert_same_as_oracle(**case)
    assert isinstance(got, tuple) and issubclass(got[0], Exception)
    # The constructor that owns the value rejects it, and only that one; the
    # worker count is the search's own argument.
    (name,) = override
    owner = {
        "grid_step": library_settings,
        "threshold_cap": library_settings,
        "workers": None,
    }.get(name, library_config)
    for builder in {library_config, library_settings} - {owner}:
        builder(**case)
    if owner is not None:
        with pytest.raises(ValueError, match=re.escape(got[1])):
            owner(**case)


@pytest.mark.parametrize("horizon", (1, 63, 64, 65, 300, 16_321))
@pytest.mark.parametrize("family", sorted(MODELS))
def test_search_trials_end_on_the_one_shot_path(family, horizon):
    """Search trials extended probe by probe end on the last row of one
    cumulative sum over the whole path, bit for bit, with that path's
    record gaps, each with the signals among its row's top m.  16,321 is
    one row past the block where the schedule reaches its largest block."""
    from seqgap.calibrate import _GapSearch
    from seqgap.engine import trial_rng

    profile, truth = StreamProfile.homogeneous(MODELS[family], 5), frozenset({1, 2})
    signal = profile.signal_mask(truth)

    def config(threshold):
        return ExperimentConfig(
            profile=profile,
            truth=truth,
            rule=GapRule(num_signals=2, threshold=threshold),
            replications=4,
            master_seed=11,
            horizon=horizon,
        )

    search = _GapSearch(config(0.5))
    for threshold in (0.5, 1e6):  # the second one runs every path out
        search.estimates(config(threshold))
    assert search.taken.tolist() == [horizon] * 4
    assert search.best.tolist() == [math.inf] * 4
    assert search.trial.tolist() == sorted(search.trial.tolist())
    for i in range(4):
        path = one_shot_path(profile, means(profile, truth), horizon, trial_rng(11, i))
        assert search.lam[i].tobytes() == path[-1].tobytes()
        best, records, hits = -math.inf, [], []
        for row, gap in zip(path, GapRule(num_signals=2, threshold=1.0).gap_column(path)):
            if gap > best:
                best = gap
                records.append(float(gap))
                hits.append(top_m_hits(row, signal, 2))
        mine = search.trial == i
        assert search.gap[mine].tolist() == records + [math.inf]
        assert search.hits[mine].tolist() == hits + [top_m_hits(path[-1], signal, 2)]


@pytest.mark.parametrize("horizon", (1, 70, 100, 300, None))
@pytest.mark.parametrize("family", sorted(MODELS))
def test_search_trials_draw_the_rows_run_sequential_draws(family, horizon):
    """After each probe at c, in rising order, every search trial has drawn
    as many rows as ``run_sequential`` draws for it at c: both step the one
    schedule of ``rules.next_block``, at J=5 and at J=100.  The probes
    reach the second and third blocks, and horizons 70, 100 and 300 cut a
    block mid-way, of 64 or 128 rows at J=5 and of 40 rows at J=100."""
    from seqgap.calibrate import _GapSearch
    from seqgap.engine import run_trial

    drawn = []
    sample_block = StreamProfile.sample_block

    def counting(self, means, steps, rng):
        drawn[-1] += steps
        return sample_block(self, means, steps, rng)

    for j in (5, 100):
        profile = StreamProfile.homogeneous(MODELS[family], j)

        def config(threshold):
            return ExperimentConfig(
                profile=profile,
                truth=frozenset({1, 2}),
                rule=GapRule(num_signals=2, threshold=threshold),
                replications=8,
                master_seed=11,
                **({} if horizon is None else {"horizon": horizon}),
            )

        search = _GapSearch(config(0.5))
        for threshold in (2.0, 40.0, 80.0, 160.0):
            search.estimates(config(threshold))
            drawn.clear()
            with mock.patch.object(StreamProfile, "sample_block", counting):
                for i in range(8):
                    drawn.append(0)
                    run_trial(config(threshold), i)
            assert search.taken.tolist() == drawn, (j, threshold)


def top_m_hits(row, signal, m):
    """Signals among the m largest entries of ``row``, the lower column first
    on ties."""
    top = sorted(range(len(row)), key=lambda c: (-row[c], c))[:m]
    return sum(bool(signal[c]) for c in top)
