"""Tests for stopping rules, fixed-sample baselines, and p-values."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import (
    gap_should_stop,
    gi_should_stop,
    labels,
    one_shot_path,
    p_value,
    stepwise_run,
    stop_tag,
)
from seqgap import (
    BERNOULLI,
    GAUSSIAN_MEAN,
    BhRule,
    GapIntersectionRule,
    GapRule,
    IntersectionRule,
    StreamModel,
    StreamProfile,
    TopMRule,
    bh_decide,
    confusion,
    order_view,
    run_sequential,
    top_m_decide,
)
from seqgap import rules
from seqgap.engine import DEFAULT_HORIZON
from seqgap.metrics import MetricKind, NoBoundConstants
from seqgap.rules import (
    STOP_GAP,
    STOP_HORIZON,
    STOP_INTERSECTION,
    STOP_TAU1,
    STOP_TAU2,
    STOP_TAU3,
)
from seqgap.thresholds import ErrorBudget


def view(*lam):
    return order_view(np.array(lam, dtype=float))


def fires(rule, *lam):
    """Tag of the event ``scan_path`` finds on the one-row block ``lam``."""
    hit = rule.scan_path(np.array([lam], dtype=float))
    return None if hit is None else hit[1]


# --- gap rule ---


def test_gap_should_stop_hand_traces():
    rule = GapRule(num_signals=1, threshold=2.0)
    assert fires(rule, 1.0, -0.5, -1.2) is None  # gap 1.5
    assert fires(rule, 2.3, -0.1, -2.0) == STOP_GAP  # gap 2.4


def test_gap_decide_rejects_top_m():
    rule = GapRule(num_signals=1, threshold=2.0)
    assert labels(rule.decide(view(2.3, -0.1, -2.0))) == frozenset({1})
    rule2 = GapRule(num_signals=2, threshold=7.0)
    assert labels(rule2.decide(view(5.0, 4.0, -3.0))) == frozenset({1, 2})


def test_gap_rule_validation():
    with pytest.raises(ValueError):
        GapRule(num_signals=0, threshold=1.0)
    with pytest.raises(ValueError):
        GapRule(num_signals=1, threshold=0.0)
    with pytest.raises(ValueError):
        GapRule(num_signals=1, threshold=math.nan)


def test_gap_scan_path_matches_stepwise():
    """Vectorized path scan stops at the same step as the one-state oracle."""
    rng = np.random.default_rng(11)
    for _ in range(100):
        j = int(rng.integers(2, 8))
        m = int(rng.integers(1, j))
        rule = GapRule(num_signals=m, threshold=float(rng.uniform(0.5, 3.0)))
        path = np.cumsum(rng.normal(scale=0.8, size=(60, j)), axis=0)
        hit = rule.scan_path(path)
        stepwise = None
        for t in range(60):
            if gap_should_stop(rule, path[t]):
                stepwise = t
                break
        if stepwise is None:
            assert hit is None
        else:
            assert hit is not None and hit[0] == stepwise and hit[1] == STOP_GAP


def test_gap_stopping_is_monotone_in_threshold():
    """On a fixed path, a larger threshold never stops earlier."""
    rng = np.random.default_rng(5)
    path = np.cumsum(rng.normal(loc=0.1, scale=1.0, size=(400, 5)), axis=0)

    def stop_step(c):
        hit = GapRule(num_signals=2, threshold=c).scan_path(path)
        return math.inf if hit is None else hit[0]

    steps = [stop_step(c) for c in (0.5, 1.0, 2.0, 4.0, 8.0)]
    assert steps == sorted(steps)


# --- gap-intersection rule ---


def gi(lo, hi, a, b, c, d):
    return GapIntersectionRule(
        min_signals=lo,
        max_signals=hi,
        accept_barrier=a,
        reject_barrier=b,
        accept_gap=c,
        reject_gap=d,
    )


def test_gi_tau1_and_tau2_tag_priority():
    """When tau1 and tau2 fire together the reported event is tau1."""
    rule = gi(1, 2, 2.0, 2.0, 3.0, 3.0)
    assert fires(rule, 4.0, -3.0, -3.5) == STOP_TAU1


def test_gi_tau2_alone():
    # p=1 in [1,2] and all lam outside (-2, 2); the accept-side gap 7 is
    # below accept_gap=8 so tau1 stays quiet, and lam(2) = -3 < b kills tau3.
    rule = gi(1, 2, 2.0, 2.0, 8.0, 6.0)
    assert fires(rule, 4.0, -3.0, -3.5) == STOP_TAU2


def test_gi_tau3_alone():
    # lam(2) = 4 >= b and gap at u: 4 - (-0.5) = 4.5 >= d, but lam(3) =
    # -0.5 inside the corridor so tau2 cannot fire, and lam(2) > -a kills tau1.
    rule = gi(1, 2, 2.0, 2.0, 9.0, 4.0)
    assert fires(rule, 5.0, 4.0, -0.5) == STOP_TAU3


def test_gi_no_stop():
    rule = gi(1, 2, 2.0, 2.0, 3.0, 3.0)
    assert fires(rule, 1.0, -1.0, -1.5) is None


def test_gi_sentinel_convention_low_edge():
    """With lo=0 the accept event needs no gap: the sentinel is infinite."""
    rule = gi(0, 1, 2.0, 5.0, 3.0, 3.0)
    assert fires(rule, -2.5, -2.6) == STOP_TAU1


def test_gi_high_edge_reject_gap_is_vacuous():
    """With hi=J the reject-side gap drops out (infinite sentinel), so an
    unreachable reject_gap still stops; the corridor event carries the tag."""
    rule = gi(1, 2, 2.0, 2.0, 1e9, 1e9)
    assert fires(rule, 4.0, 3.5) == STOP_TAU2


def test_gi_decide_clamps_positive_count():
    rule = gi(1, 2, 2.0, 2.0, 3.0, 3.0)
    # tau1 with zero positives: p=0 clamps up to lo=1
    assert labels(rule.decide(view(-0.5, -4.0, -4.5))) == frozenset({1})
    # tau3 with all positives: p=3 clamps down to hi=2
    assert labels(rule.decide(view(6.0, 5.0, 4.0))) == frozenset({1, 2})


def test_gi_validation():
    with pytest.raises(ValueError):
        gi(2, 1, 1.0, 1.0, 1.0, 1.0)  # lo > hi
    with pytest.raises(ValueError):
        gi(-1, 2, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        gi(0, 2, -1.0, 1.0, 1.0, 1.0)


def test_gi_scan_path_matches_stepwise():
    rng = np.random.default_rng(21)
    for _ in range(100):
        j = int(rng.integers(2, 7))
        lo = int(rng.integers(0, j))
        hi = int(rng.integers(lo + 1, j + 1))
        rule = gi(
            lo,
            hi,
            float(rng.uniform(0.5, 2.5)),
            float(rng.uniform(0.5, 2.5)),
            float(rng.uniform(0.5, 3.5)),
            float(rng.uniform(0.5, 3.5)),
        )
        path = np.cumsum(rng.normal(scale=0.9, size=(80, j)), axis=0)
        hit = rule.scan_path(path)
        stepwise = None
        for t in range(80):
            tag = gi_should_stop(rule, path[t])
            if tag is not None:
                stepwise = (t, tag)
                break
        assert hit == stepwise


# --- intersection rule ---


def test_intersection_requires_full_exit():
    rule = IntersectionRule(accept_barrier=2.0, reject_barrier=3.0)
    assert fires(rule, 3.5, -1.0) is None  # -1 still inside (-2, 3)
    assert fires(rule, 3.5, -2.0) == STOP_INTERSECTION  # boundary counts as outside
    assert fires(rule, 3.0, -2.5) == STOP_INTERSECTION


def test_intersection_rejects_positives():
    rule = IntersectionRule(accept_barrier=2.0, reject_barrier=3.0)
    assert labels(rule.decide(view(3.5, -2.0, 4.0))) == frozenset({1, 3})


def test_intersection_agrees_with_unclamped_bracket():
    """The bracketed rule at (lo=0, hi=J) makes the same decisions."""
    rng = np.random.default_rng(31)
    for _ in range(100):
        j = int(rng.integers(2, 7))
        a = float(rng.uniform(0.5, 2.5))
        b = float(rng.uniform(0.5, 2.5))
        plain = IntersectionRule(accept_barrier=a, reject_barrier=b)
        bracketed = gi(0, j, a, b, 1e9, 1e9)
        path = np.cumsum(rng.normal(scale=0.9, size=(120, j)), axis=0)
        hit_plain = plain.scan_path(path)
        hit_bracketed = bracketed.scan_path(path)
        if hit_plain is None:
            assert hit_bracketed is None
            continue
        assert hit_bracketed is not None
        assert hit_plain[0] == hit_bracketed[0]
        t = hit_plain[0]
        at_stop = order_view(path[t])
        assert labels(plain.decide(at_stop)) == labels(bracketed.decide(at_stop))


@st.composite
def _budget_cases(draw):
    j = draw(st.integers(2, 12))
    alts = draw(st.lists(st.floats(0.1, 2.0), min_size=j, max_size=j))
    profile = StreamProfile(
        tuple(StreamModel(family=GAUSSIAN_MEAN, null=0.0, alt=x) for x in alts)
    )
    levels = st.floats(1e-8, 0.5)
    alpha = draw(levels)
    beta = draw(levels.filter(lambda x: x != alpha))
    control = draw(st.sampled_from(list(MetricKind)))
    return profile, draw(_truths(j)), ErrorBudget(alpha, beta), control


@settings(max_examples=300, deadline=None)
@given(_budget_cases())
def test_intersection_rule_is_the_full_bracket_at_a_budget(case):
    """At any budget and control metric the intersection rule takes the
    barriers, the benchmark and the bounds cell of the bracket 0..J, and
    lacks bound constants exactly where that bracket does."""
    profile, truth, budget, control = case
    j = profile.j
    plain = IntersectionRule(accept_barrier=1.0, reject_barrier=2.0)
    bracketed = gi(0, j, 1.0, 2.0, 3.0, 3.0)
    assert plain.bounds_cell(j) == bracketed.bounds_cell(j)

    def at_budget(rule):
        try:
            return rule.at_budget(budget, j, truth, control)
        except NoBoundConstants:
            return None

    at_plain, at_bracketed = at_budget(plain), at_budget(bracketed)
    assert (at_plain is None) == (at_bracketed is None)
    if at_plain is not None:
        assert at_plain.accept_barrier == at_bracketed.accept_barrier
        assert at_plain.reject_barrier == at_bracketed.reject_barrier
    assert plain.kappa(budget, profile, truth) == bracketed.kappa(
        budget, profile, truth
    )


# --- every sequential rule against its one-state oracle ---


# Integer entries and thresholds make ties between statistics, and between a
# gap and its threshold, common; infinite entries make infinite and NaN gaps.
# A threshold of 100 is out of reach of finite entries, so only an infinite
# gap, such as an edge sentinel, can meet it.
_ENTRIES = st.sampled_from([float(k) for k in range(-4, 5)] + [math.inf, -math.inf])
_THRESHOLDS = st.sampled_from([0.5, 1.0, 2.0, 3.0, 100.0])


@st.composite
def _block_and_thresholds(draw):
    j = draw(st.integers(2, 7))
    steps = draw(st.integers(1, 8))
    row = st.lists(_ENTRIES, min_size=j, max_size=j)
    block = np.array(draw(st.lists(row, min_size=steps, max_size=steps)))
    return block, draw(st.lists(_THRESHOLDS, min_size=4, max_size=4))


def _rules(j, c):
    """Each sequential rule at every signal count and bracket that J allows."""
    yield from (GapRule(num_signals=m, threshold=c[0]) for m in range(1, j))
    for lo in range(j):
        for hi in range(lo + 1, j + 1):
            yield gi(lo, hi, *c)
    yield IntersectionRule(accept_barrier=c[0], reject_barrier=c[1])


def _stepwise(rule, block):
    """First row where the rule's one-state oracle fires, with its tag."""
    for t, row in enumerate(block):
        tag = stop_tag(rule, row)
        if tag is not None:
            return t, tag
    return None


# Every threshold 1.0.  At J=3 the bracket 1..2 meets tau3 on row 0 and
# tau1 on row 1, so the earliest row wins over the first listed event; then
# tau2 and tau3 on one row (tau1 and tau3 cannot share a row, as the
# thresholds are positive), so tau2 wins; then a corridor first left on row 1.
_ONES = [1.0] * 4


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@settings(max_examples=500, deadline=None)
@given(_block_and_thresholds())
@example((np.array([[3.0, 2.0, 0.0], [3.0, -2.0, -2.0]]), _ONES))  # (0, tau3)
@example((np.array([[3.0, 2.0, -2.0]]), _ONES))  # (0, tau2)
@example((np.array([[0.0, 0.0, 0.0], [3.0, 2.0, -2.0]]), _ONES))  # corridor: row 1
def test_scan_path_matches_stepwise_oracle(case):
    """``scan_path`` stops at the first row where the rule's one-state
    condition holds, with the tag that condition names."""
    block, c = case
    for rule in _rules(block.shape[1], c):
        assert rule.scan_path(block) == _stepwise(rule, block), rule


# --- decisions as masks against the label oracle ---


def _truths(j):
    """Signal label sets over J streams, the empty and the full set among them."""
    streams = frozenset(range(1, j + 1))
    subsets = st.frozensets(st.sampled_from(sorted(streams)))
    return st.one_of(st.just(frozenset()), st.just(streams), subsets)


@st.composite
def _row_and_truth(draw):
    j = draw(st.integers(2, 7))
    row = np.array(draw(st.lists(_ENTRIES, min_size=j, max_size=j)))
    return row, draw(_truths(j))


def _assert_as_oracle(rejected, expected, truth):
    """The rejection mask rejects the oracle's labels, and ``confusion``
    counts it as the oracle counts those labels against ``truth``."""
    j = rejected.size
    signal = np.isin(np.arange(1, j + 1), sorted(truth))
    assert labels(rejected) == expected
    assert oracles.rows(confusion(rejected, signal)) == [
        oracles.confusion(expected, truth, j)
    ]


@settings(max_examples=500, deadline=None)
@given(_row_and_truth())
def test_decide_matches_the_label_oracle(case):
    """Every sequential rule, at every signal count and bracket, rejects
    and counts on rows with ties and infinite entries as the label oracle."""
    row, truth = case
    view = order_view(row)
    for rule in _rules(row.size, [1.0] * 4):
        _assert_as_oracle(rule.decide(view), oracles.decide(rule, row), truth)


def test_rejection_ranges():
    """The gap rule rejects m..m, the bracketed rule l..u and the
    intersection rule 0..J; a rule that does not fit J raises."""
    assert GapRule(num_signals=3, threshold=1.0).rejections(10) == (3, 3)
    assert gi(2, 7, 1.0, 1.0, 1.0, 1.0).rejections(10) == (2, 7)
    assert gi(0, 10, 1.0, 1.0, 1.0, 1.0).rejections(10) == (0, 10)
    plain = IntersectionRule(accept_barrier=1.0, reject_barrier=1.0)
    assert plain.rejections(10) == (0, 10)
    with pytest.raises(ValueError, match="num_signals must be <= J - 1"):
        GapRule(num_signals=10, threshold=1.0).rejections(10)
    with pytest.raises(ValueError, match="max_signals must be <= J"):
        gi(2, 11, 1.0, 1.0, 1.0, 1.0).rejections(10)


# --- sequential driver ---


def make_profile(j=4, theta=0.5):
    return StreamProfile.homogeneous(
        StreamModel(family=GAUSSIAN_MEAN, null=0.0, alt=theta), j
    )


def test_run_sequential_gap_smoke():
    profile = make_profile()
    rule = GapRule(num_signals=2, threshold=2.0)
    means = oracles.means(profile, {1, 2})
    decision = run_sequential(rule, profile, means, 100_000, np.random.default_rng(3))
    assert decision.stopping_time >= 1
    assert len(labels(decision.rejected)) == 2
    assert decision.stopped_by == STOP_GAP


def test_gap_column_takes_stacks_and_scan_path_one_block():
    """The gap column of a (..., steps, J) stack is each block's own, bit
    for bit, ties included; ``scan_path`` still takes one block only."""
    rule = GapRule(num_signals=2, threshold=1.0)
    stack = np.random.default_rng(2).normal(size=(3, 4, 7, 5))
    stack[1, :, :, 2] = stack[1, :, :, 0]  # tied statistics
    column = rule.gap_column(stack)
    assert column.shape == (3, 4, 7)
    for index in np.ndindex(3, 4):
        assert column[index].tobytes() == rule.gap_column(stack[index]).tobytes()
    for bad in (stack[0, 0, 0], stack[..., :1]):
        with pytest.raises(ValueError, match="steps, J\\) stack with J >= 2"):
            rule.gap_column(bad)
    with pytest.raises(ValueError, match="must be a \\(steps, J\\) block"):
        rule.scan_path(stack[0])


# At J=5 the blocks are 64, 128, 256 and 512 rows, then 819 = 4096 // 5
# rows from row 960 on, so a horizon of 16,321 cuts a capped block; at
# J=100 every block is 40 rows.
WALK_HORIZONS = (1, 63, 64, 65, 300, 16_321)
WALK_PROFILES = {
    "gaussian": make_profile(j=5),
    "bernoulli": StreamProfile.homogeneous(
        StreamModel(family=BERNOULLI, null=0.3, alt=0.6), 5
    ),
    "gaussian-j100": make_profile(j=100),
}
# J whose block cap, 4096 // J rows, lies above the first block (J < 64),
# at it (J = 64), below it (J = 100, 1000) and at one row (J > 4096).
SCHEDULE_JS = (2, 5, 10, 64, 100, 1000, 5000)


def cap(j):
    """Rows of a block of at most 4096 values over J streams, at least one."""
    return max(1, 4096 // j)


def schedule(horizon, j):
    """Row counts of the blocks of a path over J streams: 64, 128, ...
    rows, each capped at ``cap(j)`` rows, the last one cut at the horizon."""
    sizes, taken, block = [], 0, 64
    while taken < horizon:
        sizes.append(min(block, cap(j), horizon - taken))
        taken += sizes[-1]
        block *= 2
    return sizes


def taken_before(k, j):
    """Rows a path over J streams has taken before block k (from 0) of the
    schedule."""
    return sum(min(64 << i, cap(j)) for i in range(k))


@settings(max_examples=100, deadline=None)
@given(
    j=st.one_of(
        st.integers(2, 64), st.sampled_from((100, 1000)), st.integers(4097, 2**20)
    ),
    steps=st.lists(
        st.tuples(st.integers(0, 12), st.integers(1, 2**41)),
        min_size=1,
        max_size=6,
    ),
)
def test_next_block_is_the_min_of_its_cut_and_doubling(j, steps):
    """``next_block`` on ints returns Python ints: block k of the schedule,
    64 * 2**k rows capped at 4096 // J rows (at least one), cut at the
    horizon; on int columns, each entry's own result."""
    taken = [taken_before(k, j) for k, _ in steps]
    horizons = [t + h for t, (_, h) in zip(taken, steps)]
    want = [
        min(64 << k, cap(j), h - t) for (k, _), t, h in zip(steps, taken, horizons)
    ]
    for t, h, rows in zip(taken, horizons, want):
        got = rules.next_block(t, h, j)
        assert got == rows and type(got) is int
    column = rules.next_block(np.array(taken), np.array(horizons), j)
    assert column.tolist() == want


@pytest.mark.parametrize("horizon", WALK_HORIZONS + (100_000,))
def test_next_block_steps_the_schedule(horizon):
    """Stepped from no rows taken, ``next_block`` gives the blocks of
    ``schedule`` at every J of ``SCHEDULE_JS``."""
    for j in SCHEDULE_JS:
        sizes, taken = [], 0
        while taken < horizon:
            sizes.append(rules.next_block(taken, horizon, j))
            assert sizes[-1] >= 1, (j, taken)  # an empty block never ends
            taken += sizes[-1]
        assert sizes == schedule(horizon, j), j


class RecordingRule:
    """A gap rule that never fires and keeps a copy of every block it is
    asked to scan."""

    def __init__(self):
        self.blocks = []
        self.decide = GapRule(num_signals=2, threshold=1.0).decide

    def scan_path(self, path):
        self.blocks.append(path.copy())
        return None


@pytest.mark.parametrize("horizon", WALK_HORIZONS)
@pytest.mark.parametrize("family", sorted(WALK_PROFILES))
def test_walk_and_run_sequential_follow_the_one_shot_path(
    family, horizon, monkeypatch
):
    """The blocks ``run_sequential`` walks and scans concatenate to one
    cumulative sum over the whole path, bit for bit, in blocks of the
    capped doubling schedule cut at the horizon, and its horizon decision
    reads the final row; it stops and decides as a row-by-row scan of that
    path does."""
    profile = WALK_PROFILES[family]
    means = oracles.means(profile, {1, 2})
    path = one_shot_path(profile, means, horizon, np.random.default_rng(5))

    recorder, views = RecordingRule(), []
    monkeypatch.setattr(
        rules, "order_view", lambda lam: views.append(lam.copy()) or order_view(lam)
    )
    decision = run_sequential(
        recorder, profile, means, horizon, np.random.default_rng(5)
    )
    monkeypatch.undo()
    assert np.concatenate(recorder.blocks).tobytes() == path.tobytes()
    sizes = [len(block) for block in recorder.blocks]
    assert sizes == schedule(horizon, profile.j)
    assert (decision.stopping_time, decision.stopped_by) == (horizon, STOP_HORIZON)
    assert len(views) == 1 and views[0].tobytes() == path[-1].tobytes()

    # The largest gap of the path is met at its first row, and nowhere
    # earlier by a hair, only if every row is summed as the one-shot path is.
    top_gap = GapRule(num_signals=2, threshold=1.0).gap_column(path).max()
    for rule in (
        GapRule(num_signals=2, threshold=float(top_gap)),
        GapRule(num_signals=2, threshold=1e9),
        gi(1, 4, 3.0, 3.0, 1.0, 1.0),
        IntersectionRule(accept_barrier=2.0, reject_barrier=2.0),
    ):
        decision = run_sequential(
            rule, profile, means, horizon, np.random.default_rng(5)
        )
        got = (decision.stopping_time, labels(decision.rejected), decision.stopped_by)
        assert got == stepwise_run(rule, path), rule
        assert type(decision.stopping_time) is int


# Thresholds a rule meets at its first row, after a few blocks, or never.
FIRST_ROW, LATE, NEVER = 1e-3, 25.0, 1e9


def sequential_rules(j, levels):
    """A gap, gap-intersection or intersection rule on J streams, each
    threshold one of ``levels``."""
    level = st.sampled_from(levels)
    bracket = st.integers(0, j - 1).flatmap(
        lambda lo: st.tuples(st.just(lo), st.integers(lo + 1, j))
    )
    return st.one_of(
        st.builds(GapRule, st.integers(1, j - 1), level),
        st.builds(lambda b, t: gi(*b, *t), bracket, st.tuples(*[level] * 4)),
        st.builds(IntersectionRule, level, level),
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_run_shared_gives_each_rule_the_decision_it_gets_alone(data):
    """Rules of every kind that share one path, whether they fire at the
    first row, later or never, each get exactly the ``Decision`` that
    ``run_sequential`` gives them on a path of their own, at a horizon of
    one row, one that cuts the second block, and the default."""
    family = data.draw(st.sampled_from(sorted(WALK_PROFILES)), label="family")
    j = data.draw(st.integers(2, 6), label="J")
    profile = StreamProfile.homogeneous(WALK_PROFILES[family].models[0], j)
    horizon = data.draw(st.sampled_from((1, 100, DEFAULT_HORIZON)), label="horizon")
    # A rule that never fires would walk the default horizon's million rows.
    levels = (FIRST_ROW, LATE) + ((NEVER,) if horizon < DEFAULT_HORIZON else ())
    shared_rules = tuple(
        data.draw(st.lists(sequential_rules(j, levels), min_size=1, max_size=4))
    )
    means = oracles.means(profile, data.draw(st.frozensets(st.integers(1, j))))
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")

    shared = rules.run_shared(
        shared_rules, profile, means, horizon, np.random.default_rng(seed)
    )
    assert len(shared) == len(shared_rules)
    for rule, decision in zip(shared_rules, shared):
        alone = run_sequential(rule, profile, means, horizon, np.random.default_rng(seed))
        assert type(decision.stopping_time) is int
        assert oracles.outcome(decision) == oracles.outcome(alone), rule
        assert decision.rejected.tobytes() == alone.rejected.tobytes()


@pytest.mark.parametrize("horizon", (0, -3))
def test_run_sequential_rejects_a_horizon_below_one(horizon):
    profile = make_profile()
    rule = GapRule(num_signals=2, threshold=1.0)
    with pytest.raises(ValueError, match=f"horizon must be >= 1, got {horizon}"):
        run_sequential(
            rule, profile, oracles.means(profile, {1}), horizon, np.random.default_rng(0)
        )


def test_run_sequential_horizon_decision():
    """An unreachable gap forces the horizon decision at the cap."""
    profile = make_profile()
    rule = GapRule(num_signals=2, threshold=1e9)
    means = oracles.means(profile, {1, 2})
    decision = run_sequential(rule, profile, means, 500, np.random.default_rng(0))
    assert decision.stopping_time == 500
    assert decision.stopped_by == STOP_HORIZON
    assert len(labels(decision.rejected)) == 2  # gap rule still rejects its top m


# --- p-values and fixed-sample baselines ---


def test_p_value_examples():
    model = StreamModel(family=GAUSSIAN_MEAN, null=0.0, alt=0.5)
    assert p_value(0.0, 1, model) == pytest.approx(0.5, abs=1e-12)
    assert p_value(1.6449, 1, model) == pytest.approx(0.05, abs=1e-4)
    assert p_value(-3.0, 1, model) == pytest.approx(0.99865, abs=1e-5)
    # standardization uses sqrt(n)
    assert p_value(2 * 1.6449, 4, model) == pytest.approx(0.05, abs=1e-4)


def test_p_value_direction_aware():
    """A downward alternative flips the rejection tail."""
    model = StreamModel(family=GAUSSIAN_MEAN, null=0.0, alt=-0.5)
    assert p_value(-3.0, 1, model) == pytest.approx(1 - 0.99865, abs=1e-5)


def test_p_value_nonzero_null():
    model = StreamModel(family=GAUSSIAN_MEAN, null=1.0, alt=1.5)
    assert p_value(4.0, 4, model) == pytest.approx(0.5, abs=1e-12)


def test_p_value_rejects_bernoulli():
    model = StreamModel(family="bernoulli", null=0.4, alt=0.6)
    with pytest.raises(ValueError):
        p_value(1.0, 2, model)


def test_bh_decide_hand_example():
    rejected = bh_decide((0.01, 0.02, 0.04, 0.5), 0.05)
    assert labels(rejected) == frozenset({1, 2})


def test_bh_decide_extremes():
    assert labels(bh_decide((0.0, 0.0, 0.0), 0.05)) == frozenset({1, 2, 3})
    assert labels(bh_decide((1.0, 1.0, 1.0), 0.05)) == frozenset()


def test_bh_decide_matches_brute_force():
    """Step-up: largest k with p_(k) <= k * level / J, reject that many."""
    rng = np.random.default_rng(99)
    for _ in range(10_000):
        j = int(rng.integers(1, 9))
        p = rng.random(j)
        if rng.random() < 0.3:
            p = np.round(p, 1)  # provoke ties
        level = float(rng.uniform(0.01, 0.3))
        order = np.argsort(p, kind="stable")
        k = 0
        for i in range(1, j + 1):
            if p[order[i - 1]] <= i * level / j:
                k = i
        expected = frozenset(int(order[i]) + 1 for i in range(k))
        assert labels(bh_decide(p, level)) == expected


def _bh_brute_force(p, level: float) -> frozenset[int]:
    order = sorted(range(len(p)), key=lambda i: p[i])
    k = max(
        (i for i in range(1, len(p) + 1) if p[order[i - 1]] <= i * level / len(p)),
        default=0,
    )
    return frozenset(order[i] + 1 for i in range(k))


@st.composite
def _bh_cases(draw):
    """P-values that sit on the step-up boundaries k * level / J, at 0 and 1
    and on ties, with levels near both ends of (0, 1)."""
    j = draw(st.integers(1, 12))
    level = draw(
        st.one_of(
            st.sampled_from([1e-12, 1e-6, 0.01, 0.5, 0.99, 1 - 1e-6, 1 - 1e-12]),
            st.floats(1e-12, 1 - 1e-12),
        )
    )
    on_boundary = st.integers(1, j).map(lambda k: k * level / j)
    pool = draw(
        st.lists(
            st.one_of(on_boundary, st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
            min_size=1,
            max_size=j,
        )
    )
    p = draw(st.lists(st.sampled_from(pool), min_size=j, max_size=j))
    return p, level


@given(_bh_cases())
@settings(max_examples=400, deadline=None)
def test_bh_decide_matches_brute_force_on_boundaries(case):
    p, level = case
    assert labels(bh_decide(p, level)) == _bh_brute_force(p, level)


@given(_bh_cases(), st.data())
@settings(max_examples=400, deadline=None)
def test_fixed_sample_decisions_match_the_label_oracle(case, data):
    """BH on the step-up boundaries, and top-m at every m, reject and count
    as the label oracle."""
    p, level = case
    truth = data.draw(_truths(len(p)))
    _assert_as_oracle(bh_decide(p, level), oracles.bh_decide(p, level), truth)
    for m in range(1, len(p)):
        _assert_as_oracle(top_m_decide(p, m), oracles.top_m_decide(p, m), truth)


@st.composite
def _pvalue_stacks(draw):
    """A (rows, J) stack of p-values, J in 2..100: each value is drawn from
    a small pool that holds exact 0 and 1 (so rows have ties), or is
    uniform, in a share of the values that varies from stack to stack."""
    j, rows = draw(st.integers(2, 100)), draw(st.integers(1, 6))
    pool = np.array([0.0, 1.0, *draw(st.lists(st.floats(0.0, 1.0), max_size=3))])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pooled = rng.random((rows, j)) < draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    return np.where(pooled, rng.choice(pool, size=(rows, j)), rng.random((rows, j)))


@given(_pvalue_stacks(), st.data())
@settings(max_examples=200, deadline=None)
def test_stacked_decisions_are_the_label_oracle_row_by_row(stack, data):
    """A (rows, J) or (1, rows, J) stack gets, row by row, the masks the
    label oracles give each row alone."""
    rows, j = stack.shape
    level = data.draw(st.floats(1e-6, 1 - 1e-6))
    m = data.draw(st.integers(1, j - 1))
    for decide, oracle, parameter in (
        (bh_decide, oracles.bh_decide, level),
        (top_m_decide, oracles.top_m_decide, m),
    ):
        masks = decide(stack, parameter)
        assert masks.shape == stack.shape and masks.dtype == bool
        assert [labels(mask) for mask in masks] == [oracle(p, parameter) for p in stack]
        deeper = decide(stack[None], parameter)
        assert np.array_equal(deeper, masks[None])


@given(_pvalue_stacks(), st.data())
@settings(max_examples=200, deadline=None)
def test_a_bad_pvalue_in_any_row_fails_the_stack(stack, data):
    """A NaN or out-of-range value in one row fails the whole stack with
    the error that row gets alone."""
    rows, j = stack.shape
    row, column = data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, j - 1))
    stack[row, column] = data.draw(
        st.sampled_from([math.nan, math.inf, -math.inf, -0.1, 1.1, -1e-300, 1 + 1e-15])
    )
    for decide in (lambda p: bh_decide(p, 0.05), lambda p: top_m_decide(p, 1)):
        with pytest.raises(ValueError) as alone:
            decide(stack[row])
        with pytest.raises(ValueError, match=f"^{re.escape(str(alone.value))}$"):
            decide(stack)


def test_top_m_decide_examples():
    assert labels(top_m_decide((0.3, 0.1, 0.2), 2)) == frozenset({2, 3})
    assert labels(top_m_decide((0.1, 0.1), 1)) == frozenset({1})  # tie -> lowest label


def test_top_m_decide_validation():
    with pytest.raises(ValueError):
        top_m_decide((0.1, 0.2), 0)
    with pytest.raises(ValueError):
        top_m_decide((0.1, 0.2), 2)


@pytest.mark.parametrize(
    "pvalues",
    [
        [0.1, math.nan, 0.3],
        [0.1, math.inf, 0.3],
        [0.1, -math.inf, 0.3],
        [0.1, -0.1, 0.3],
        [0.1, 1.1, 0.3],
        [],
        [[0.1, 0.2], [0.3, math.nan]],
        0.5,
    ],
    ids=["nan", "+inf", "-inf", "below 0", "above 1", "empty", "2-D", "0-D"],
)
@pytest.mark.parametrize(
    "decide",
    [lambda p: bh_decide(p, 0.05), lambda p: top_m_decide(p, 1)],
    ids=["bh", "top-m"],
)
def test_fixed_sample_decisions_reject_bad_pvalues(decide, pvalues):
    with pytest.raises(ValueError, match="pvalues must"):
        decide(pvalues)


def test_fixed_sample_decisions_accept_the_closed_unit_interval():
    p = [0.0, -0.0, 1.0, 0.5]
    assert labels(bh_decide(p, 0.05)) == frozenset({1, 2})
    assert labels(top_m_decide(p, 3)) == frozenset({1, 2, 4})


def test_fixed_rule_validation():
    with pytest.raises(ValueError):
        BhRule(sample_size=0, level=0.05)
    with pytest.raises(ValueError):
        BhRule(sample_size=10, level=0.0)
    with pytest.raises(ValueError):
        TopMRule(sample_size=10, num_signals=0)
