"""Tests for confusion counting, error metrics, and bound constants."""

import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import Counts
from seqgap import (
    BoundConstants,
    ConditioningError,
    ConfusionCounts,
    MetricKind,
    aggregate,
    bound_constants,
    confusion,
)
from seqgap.metrics import NoBoundConstants, mean_se


def counts(v, r, j=4, truth_size=2):
    """One trial's counts from (false positives, rejections)."""
    w = truth_size - (r - v)  # missed signals
    return Counts(v=v, w=w, r=r, j=j)


def columns(trials):
    """The count columns of a list of one-trial ``Counts`` over one j."""
    j = trials[0].j if trials else 1
    v, w, r = (np.array([t[k] for t in trials], dtype=np.int64) for k in range(3))
    return ConfusionCounts(v=v, w=w, r=r, j=j)


def one_trial(kind, c):
    """A metric's value on the one trial ``c``, or None when undefined."""
    try:
        return aggregate(kind, columns([c])).value
    except ConditioningError:
        return None


def _mask(labels, j):
    """(j,) boolean mask, True at column k - 1 for each label k."""
    return np.isin(np.arange(1, j + 1), sorted(labels))


def test_confusion_from_decision():
    c = confusion(_mask({1, 3}, 5), _mask({3, 4}, 5))
    assert c.v.tolist() == [1]  # stream 1 rejected but is noise
    assert c.w.tolist() == [1]  # stream 4 missed
    assert c.r.tolist() == [2]
    assert c.j == 5


def test_confusion_counts_a_stack_mask_by_mask():
    signal = _mask({3, 4}, 5)
    stack = np.array([_mask(s, 5) for s in ({1, 3}, set(), {1, 2, 3, 4, 5})])
    expected = [oracles.confusion(s, {3, 4}, 5) for s in ({1, 3}, set(), {1, 2, 3, 4, 5})]
    assert oracles.rows(confusion(stack, signal)) == expected
    assert oracles.rows(confusion(stack.reshape(3, 1, 5), signal)) == expected


@pytest.mark.parametrize(
    "rejected",
    [
        np.zeros(4, dtype=bool),
        np.ones(5, dtype=int),
        np.zeros((3, 4), dtype=bool),
        np.bool_(True),
    ],
    ids=["short", "int", "2-d", "0-d"],
)
def test_confusion_rejects_a_malformed_mask(rejected):
    with pytest.raises(ValueError, match=r"\(5,\) boolean mask"):
        confusion(rejected, _mask({3, 4}, 5))


def test_confusion_counts_invariants():
    for bad in (
        counts(3, 2),  # v > r
        Counts(v=0, w=3, r=2, j=4),  # w > j - r
        Counts(v=0, w=0, r=5, j=4),  # r > j
    ):
        with pytest.raises(ValueError, match="in trial 1"):
            columns([counts(1, 2), bad, counts(0, 1)])
    with pytest.raises(ValueError, match="columns of one length"):
        ConfusionCounts(v=np.zeros(2, int), w=np.zeros(3, int), r=np.zeros(2, int), j=4)
    with pytest.raises(ValueError, match="columns of one length"):
        ConfusionCounts(v=np.zeros((2, 1), int), w=np.zeros((2, 1), int), r=np.zeros((2, 1), int), j=4)


@st.composite
def _valid_trials(draw, min_size=0):
    """Count rows a run of trials can produce over one J: each trial has
    its own signal count, which may be 0 or J."""
    j = draw(st.integers(1, 12))
    trials = []
    for _ in range(draw(st.integers(min_size, 30))):
        r = draw(st.integers(0, j))
        signals = draw(st.integers(0, j))
        v = draw(st.integers(max(0, r - signals), min(r, j - signals)))
        trials.append(Counts(v=v, w=signals - (r - v), r=r, j=j))
    return trials


def _bits(estimate):
    return estimate.value.hex(), estimate.se.hex(), estimate.n_effective


@settings(max_examples=400, deadline=None)
@given(_valid_trials())
@example([Counts(v=0, w=2, r=0, j=4)] * 3)  # pfdr drops every trial
@example([Counts(v=2, w=0, r=4, j=4)] * 2)  # pfnr drops every trial
@example([Counts(v=1, w=1, r=2, j=4), Counts(v=0, w=0, r=0, j=4)])  # fpr divisor 0
@example([])
def test_column_aggregate_is_the_scalar_oracle_bit_for_bit(trials):
    """For every metric, ``aggregate`` over count columns equals
    ``mean_se`` over the one-trial oracle's contributions in trial order,
    bit for bit, and fails where the oracle fails, with its message."""
    counts_ = columns(trials)
    for kind in MetricKind:
        try:
            expected = oracles.aggregate(kind, trials)
        except ValueError as error:
            with pytest.raises(ValueError, match=re.escape(str(error))) as raised:
                aggregate(kind, counts_)
            assert type(raised.value) is type(error)
            continue
        assert _bits(aggregate(kind, counts_)) == _bits(expected), kind


@settings(max_examples=200, deadline=None)
@given(trials=_valid_trials(min_size=1), data=st.data())
def test_count_columns_name_the_first_bad_trial(trials, data):
    """A trial with v > r or w > J - r fails the columns, which name it."""
    t = data.draw(st.integers(0, len(trials) - 1))
    v, w, r, j = trials[t]
    if data.draw(st.booleans()):
        bad, need = Counts(r + data.draw(st.integers(1, 3)), w, r, j), "v <= r"
    else:
        bad, need = Counts(v, j - r + data.draw(st.integers(1, 3)), r, j), "w <= j - r"
    with pytest.raises(ValueError, match=f"{re.escape(need)}.* in trial {t}$"):
        columns(trials[:t] + [bad] + trials[t + 1 :])


def test_per_trial_values():
    c = Counts(v=1, w=1, r=2, j=4)
    assert one_trial(MetricKind.FDR, c) == pytest.approx(0.5)
    assert one_trial(MetricKind.FNR, c) == pytest.approx(0.5)
    assert one_trial(MetricKind.FWE1, c) == 1.0
    assert one_trial(MetricKind.FWE2, c) == 1.0
    assert one_trial(MetricKind.PCER, c) == pytest.approx(0.25)
    assert one_trial(MetricKind.PFER, c) == 1.0
    assert one_trial(MetricKind.PFER2, c) == 1.0
    assert one_trial(MetricKind.FPR, c) == pytest.approx(0.5)  # V / (W + R - V)


def test_per_trial_zero_rejections():
    c = Counts(v=0, w=2, r=0, j=4)
    assert one_trial(MetricKind.FDR, c) == 0.0  # V/(R or 1)
    assert one_trial(MetricKind.PFDR, c) is None  # conditioning event fails
    assert one_trial(MetricKind.FNR, c) == pytest.approx(0.5)


def test_per_trial_all_rejected():
    c = Counts(v=2, w=0, r=4, j=4)
    assert one_trial(MetricKind.PFNR, c) is None
    assert one_trial(MetricKind.FNR, c) == 0.0


def test_fdr_aggregation_example():
    rows = [counts(1, 2), counts(0, 1), counts(1, 1)]
    est = aggregate(MetricKind.FDR, columns(rows))
    assert est.value == pytest.approx(0.5)
    assert est.n_effective == 3


def test_pfdr_aggregation_example():
    rows = [counts(1, 2), Counts(v=0, w=2, r=0, j=4), counts(1, 1)]
    est = aggregate(MetricKind.PFDR, columns(rows))
    assert est.value == pytest.approx(0.75)
    assert est.n_effective == 2


def test_pfdr_conditioning_error_when_event_never_happens():
    rows = [Counts(v=0, w=2, r=0, j=4)] * 3
    with pytest.raises(ConditioningError) as err:
        aggregate(MetricKind.PFDR, columns(rows))
    assert "pfdr" in str(err.value)


def test_fpr_requires_signal_count():
    """FPR divides by the trial's signal count W + R - V; with no signal
    there is no divisor."""
    with pytest.raises(ValueError, match="at least one signal"):
        aggregate(MetricKind.FPR, columns([counts(1, 2), counts(1, 1, truth_size=0)]))
    est = aggregate(MetricKind.FPR, columns([counts(1, 2)]))
    assert est.value == pytest.approx(0.5)


def test_mean_se_matches_exact_fractions():
    """fsum aggregation agrees with exact rational arithmetic."""
    rng = np.random.default_rng(17)
    values = [Fraction(int(k), 16) for k in rng.integers(0, 17, size=101)]
    floats = [float(x) for x in values]
    est = mean_se(floats)
    n = len(values)
    mean = sum(values) / n
    var = sum((x - mean) ** 2 for x in values) / (n * (n - 1))
    assert est.value == pytest.approx(float(mean), rel=1e-14)
    assert est.se == pytest.approx(float(var) ** 0.5, rel=1e-12)
    assert est.n_effective == n


def test_mean_se_single_value():
    est = mean_se([0.3])
    assert est.value == pytest.approx(0.3)
    assert est.se == 0.0
    assert est.n_effective == 1


def test_aggregate_se_shrinks_with_n():
    rng = np.random.default_rng(3)
    rows = [counts(int(rng.integers(0, 2)), 2) for _ in range(400)]
    small = aggregate(MetricKind.FDR, columns(rows[:100]))
    large = aggregate(MetricKind.FDR, columns(rows))
    assert large.se < small.se


# --- bound constants used to rescale thresholds per metric ---


def test_bound_constants_fwe():
    bc = bound_constants(MetricKind.FWE1, 10, 5, 5, 5)
    assert (bc.c1_type1, bc.c1_type2, bc.c2) == (1.0, 1.0, 1.0)
    assert bc.c1 == 1.0


def test_bound_constants_fdr_fnr():
    for kind in (MetricKind.FDR, MetricKind.FNR):
        bc = bound_constants(kind, 10, 5, 5, 5)
        assert (bc.c1_type1, bc.c1_type2) == (1.0, 1.0)
        assert bc.c2 == pytest.approx(0.1)


def test_bound_constants_pfer_scales_with_counts():
    """Expected-count metrics inflate C1 by the worst-case count."""
    bc = bound_constants(MetricKind.PFER, 10, 3, 3, 3)
    assert bc.c1_type1 == 3.0  # at most m false positives
    assert bc.c1_type2 == 7.0  # at most J - m false negatives
    assert bc.c1 == 7.0
    assert bc.c2 == 1.0
    gi = bound_constants(MetricKind.PFER, 10, 2, 7, 4)
    assert gi.c1_type1 == 7.0  # up to u rejections
    assert gi.c1_type2 == 8.0  # up to J - l acceptances


def test_bound_constants_pcer_and_fpr():
    pcer = bound_constants(MetricKind.PCER, 10, 3, 3, 3)
    assert pcer.c1_type1 == pytest.approx(0.3)
    assert pcer.c1_type2 == pytest.approx(0.7)
    assert pcer.c2 == pytest.approx(0.1)
    fpr = bound_constants(MetricKind.FPR, 10, 3, 3, 3)
    assert fpr.c1_type1 == pytest.approx(1.0)  # V <= m always
    assert fpr.c1_type2 == pytest.approx(1.0)
    assert fpr.c2 == pytest.approx(1 / 7)


def test_bound_constants_pfdr_needs_interior_bracket():
    bc = bound_constants(MetricKind.PFDR, 10, 1, 9, 4)
    assert bc.c2 == pytest.approx(0.1)
    with pytest.raises(NoBoundConstants):
        bound_constants(MetricKind.PFDR, 10, 0, 9, 4)
    with pytest.raises(NoBoundConstants):
        bound_constants(MetricKind.PFNR, 10, 1, 10, 4)


def test_bound_constants_sandwich_property():
    """C1 and C2 really sandwich: metric <= C1 * FWE and FWE <= metric / C2
    ... checked empirically: for every count table, metric value is at most
    c1_type1 * 1{V>=1} + nothing on the type-II side, and at least c2 * FWE."""
    for kind in (
        MetricKind.FDR,
        MetricKind.PCER,
        MetricKind.PFER,
        MetricKind.FPR,
    ):
        bc = bound_constants(kind, 6, 2, 2, 2)
        for v in range(0, 3):  # gap rule rejects exactly m=2, so V <= 2
            c = Counts(v=v, w=v, r=2, j=6)  # W = V for this rule
            value = oracles.per_trial(kind, c)
            fwe1 = 1.0 if v >= 1 else 0.0
            assert value <= bc.c1_type1 * fwe1 + 1e-12
            assert bc.c2 * fwe1 <= value + 1e-12


# Metrics bounded through V (false rejections) and through W (missed signals).
_V_SIDE = (
    MetricKind.FWE1,
    MetricKind.FDR,
    MetricKind.PFDR,
    MetricKind.PCER,
    MetricKind.FPR,
    MetricKind.PFER,
)
_W_SIDE = (MetricKind.FWE2, MetricKind.FNR, MetricKind.PFNR, MetricKind.PFER2)
# Kinds whose constants need no bracket or signal-count condition.
_ALWAYS_BOUNDED = {
    MetricKind.FWE1,
    MetricKind.FWE2,
    MetricKind.FDR,
    MetricKind.FNR,
    MetricKind.PCER,
    MetricKind.PFER,
    MetricKind.PFER2,
}


@st.composite
def _rule_and_counts(draw):
    """A rule's rejection range, and one trial's counts that the rule can
    produce with any number of signals: the gap rule rejects exactly m of J
    streams, the bracketed rule between l and u of them."""
    j = draw(st.integers(2, 12))
    if draw(st.booleans()):
        lo = hi = draw(st.integers(1, j - 1))
    else:
        lo = draw(st.integers(0, j - 1))
        hi = draw(st.integers(lo + 1, j))
    r = draw(st.integers(lo, hi))
    signals = draw(st.integers(0, j))
    v = draw(st.integers(max(0, r - signals), min(r, j - signals)))
    counts = Counts(v=v, w=signals - (r - v), r=r, j=j)
    return lo, hi, counts, signals


@settings(max_examples=500, deadline=None)
@given(_rule_and_counts())
def test_bound_constants_sandwich_every_trial(case):
    """c2 * 1{V >= 1} <= metric <= c1_type1 * 1{V >= 1} on every trial, for
    every metric bounded through V, and the same through W with c1_type2;
    so FDR <= FWE1 <= J * FDR holds trial by trial, exactly."""
    lo, hi, counts, signals = case
    covered = set()
    for side, c1_of, fwe in (
        (_V_SIDE, lambda bc: bc.c1_type1, float(counts.v >= 1)),
        (_W_SIDE, lambda bc: bc.c1_type2, float(counts.w >= 1)),
    ):
        for kind in side:
            try:
                bc = bound_constants(kind, counts.j, lo, hi, signals)
            except NoBoundConstants:
                continue  # no constants for this bracket or signal count
            covered.add(kind)
            value = oracles.per_trial(kind, counts)
            assert bc.c2 * fwe <= value <= c1_of(bc) * fwe, (kind, bc, value)
    assert covered >= _ALWAYS_BOUNDED
