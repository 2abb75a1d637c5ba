"""Tests for confusion counting, error metrics, and bound constants."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqgap import (
    BoundConstants,
    ConditioningError,
    ConfusionCounts,
    MetricKind,
    aggregate,
    bound_constants,
    confusion,
    per_trial,
)
from seqgap.metrics import mean_se
from seqgap.rules import Decision


def counts(v, r, j=4, truth_size=2):
    """Build ConfusionCounts from (false positives, rejections)."""
    w = truth_size - (r - v)  # missed signals
    return ConfusionCounts(v=v, w=w, r=r, j=j)


def test_confusion_from_decision():
    decision = Decision(stopping_time=9, rejected=frozenset({1, 3}), stopped_by="gap")
    c = confusion(decision, truth=frozenset({3, 4}), j=5)
    assert c.v == 1  # stream 1 rejected but is noise
    assert c.w == 1  # stream 4 missed
    assert c.r == 2
    assert c.j == 5


def test_confusion_counts_invariants():
    with pytest.raises(ValueError):
        ConfusionCounts(v=3, w=0, r=2, j=4)  # v > r
    with pytest.raises(ValueError):
        ConfusionCounts(v=0, w=3, r=2, j=4)  # w > j - r
    with pytest.raises(ValueError):
        ConfusionCounts(v=0, w=0, r=5, j=4)  # r > j


def test_per_trial_values():
    c = ConfusionCounts(v=1, w=1, r=2, j=4)
    assert per_trial(MetricKind.FDR, c) == pytest.approx(0.5)
    assert per_trial(MetricKind.FNR, c) == pytest.approx(0.5)
    assert per_trial(MetricKind.FWE1, c) == 1.0
    assert per_trial(MetricKind.FWE2, c) == 1.0
    assert per_trial(MetricKind.PCER, c) == pytest.approx(0.25)
    assert per_trial(MetricKind.PFER, c) == 1.0
    assert per_trial(MetricKind.PFER2, c) == 1.0
    assert per_trial(MetricKind.FPR, c, signal_count=2) == pytest.approx(0.5)


def test_per_trial_zero_rejections():
    c = ConfusionCounts(v=0, w=2, r=0, j=4)
    assert per_trial(MetricKind.FDR, c) == 0.0  # V/(R or 1)
    assert per_trial(MetricKind.PFDR, c) is None  # conditioning event fails
    assert per_trial(MetricKind.FNR, c) == pytest.approx(0.5)


def test_per_trial_all_rejected():
    c = ConfusionCounts(v=2, w=0, r=4, j=4)
    assert per_trial(MetricKind.PFNR, c) is None
    assert per_trial(MetricKind.FNR, c) == 0.0


def test_fdr_aggregation_example():
    rows = [counts(1, 2), counts(0, 1), counts(1, 1)]
    est = aggregate(MetricKind.FDR, rows)
    assert est.value == pytest.approx(0.5)
    assert est.n_effective == 3


def test_pfdr_aggregation_example():
    rows = [counts(1, 2), ConfusionCounts(v=0, w=2, r=0, j=4), counts(1, 1)]
    est = aggregate(MetricKind.PFDR, rows)
    assert est.value == pytest.approx(0.75)
    assert est.n_effective == 2


def test_pfdr_conditioning_error_when_event_never_happens():
    rows = [ConfusionCounts(v=0, w=2, r=0, j=4)] * 3
    with pytest.raises(ConditioningError) as err:
        aggregate(MetricKind.PFDR, rows)
    assert "pfdr" in str(err.value)


def test_fpr_requires_signal_count():
    rows = [counts(1, 2)]
    with pytest.raises(ValueError):
        aggregate(MetricKind.FPR, rows)
    est = aggregate(MetricKind.FPR, rows, signal_count=2)
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
    small = aggregate(MetricKind.FDR, rows[:100])
    large = aggregate(MetricKind.FDR, rows)
    assert large.se < small.se


# --- bound constants used to rescale thresholds per metric ---


def test_bound_constants_fwe():
    bc = bound_constants(MetricKind.FWE1, "gap", 10, num_signals=5)
    assert (bc.c1_type1, bc.c1_type2, bc.c2) == (1.0, 1.0, 1.0)
    assert bc.c1 == 1.0


def test_bound_constants_fdr_fnr():
    for kind in (MetricKind.FDR, MetricKind.FNR):
        bc = bound_constants(kind, "gap", 10, num_signals=5)
        assert (bc.c1_type1, bc.c1_type2) == (1.0, 1.0)
        assert bc.c2 == pytest.approx(0.1)


def test_bound_constants_pfer_scales_with_counts():
    """Expected-count metrics inflate C1 by the worst-case count."""
    bc = bound_constants(MetricKind.PFER, "gap", 10, num_signals=3)
    assert bc.c1_type1 == 3.0  # at most m false positives
    assert bc.c1_type2 == 7.0  # at most J - m false negatives
    assert bc.c1 == 7.0
    assert bc.c2 == 1.0
    gi = bound_constants(
        MetricKind.PFER, "gap-intersection", 10, min_signals=2, max_signals=7
    )
    assert gi.c1_type1 == 7.0  # up to u rejections
    assert gi.c1_type2 == 8.0  # up to J - l acceptances


def test_bound_constants_pcer_and_fpr():
    pcer = bound_constants(MetricKind.PCER, "gap", 10, num_signals=3)
    assert pcer.c1_type1 == pytest.approx(0.3)
    assert pcer.c1_type2 == pytest.approx(0.7)
    assert pcer.c2 == pytest.approx(0.1)
    fpr = bound_constants(MetricKind.FPR, "gap", 10, num_signals=3)
    assert fpr.c1_type1 == pytest.approx(1.0)  # V <= m always
    assert fpr.c1_type2 == pytest.approx(1.0)
    assert fpr.c2 == pytest.approx(1 / 7)


def test_bound_constants_pfdr_needs_interior_bracket():
    bc = bound_constants(
        MetricKind.PFDR, "gap-intersection", 10, min_signals=1, max_signals=9
    )
    assert bc.c2 == pytest.approx(0.1)
    with pytest.raises(ValueError):
        bound_constants(
            MetricKind.PFDR, "gap-intersection", 10, min_signals=0, max_signals=9
        )
    with pytest.raises(ValueError):
        bound_constants(
            MetricKind.PFNR, "gap-intersection", 10, min_signals=1, max_signals=10
        )


def test_bound_constants_reject_unknown_rule_class():
    with pytest.raises(ValueError):
        bound_constants(MetricKind.FDR, "bh", 10, num_signals=3)


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
        bc = bound_constants(kind, "gap", 6, num_signals=2)
        for v in range(0, 3):  # gap rule rejects exactly m=2, so V <= 2
            c = ConfusionCounts(v=v, w=v, r=2, j=6)  # W = V for this rule
            value = per_trial(kind, c, signal_count=2)
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
    """A rule class with its bound-constant arguments, and one trial's
    counts that the rule can produce: the gap rule rejects exactly m of J
    streams with m signals, the bracketed rule between l and u of them."""
    j = draw(st.integers(2, 12))
    if draw(st.booleans()):
        m = draw(st.integers(1, j - 1))
        rule_class, kwargs, r, signals = "gap", {"num_signals": m}, m, m
    else:
        lo = draw(st.integers(0, j - 1))
        hi = draw(st.integers(lo + 1, j))
        r = draw(st.integers(lo, hi))
        signals = draw(st.integers(0, j))
        rule_class = "gap-intersection"
        kwargs = {
            "num_signals": signals or None,
            "min_signals": lo,
            "max_signals": hi,
        }
    v = draw(st.integers(max(0, r - signals), min(r, j - signals)))
    counts = ConfusionCounts(v=v, w=signals - (r - v), r=r, j=j)
    return rule_class, kwargs, counts, signals


@settings(max_examples=500, deadline=None)
@given(_rule_and_counts())
def test_bound_constants_sandwich_every_trial(case):
    """c2 * 1{V >= 1} <= metric <= c1_type1 * 1{V >= 1} on every trial, for
    every metric bounded through V, and the same through W with c1_type2;
    so FDR <= FWE1 <= J * FDR holds trial by trial, exactly."""
    rule_class, kwargs, counts, signals = case
    covered = set()
    for side, c1_of, fwe in (
        (_V_SIDE, lambda bc: bc.c1_type1, float(counts.v >= 1)),
        (_W_SIDE, lambda bc: bc.c1_type2, float(counts.w >= 1)),
    ):
        for kind in side:
            try:
                bc = bound_constants(kind, rule_class, counts.j, **kwargs)
            except ValueError:
                continue  # no constants for this bracket or signal count
            covered.add(kind)
            value = per_trial(kind, counts, signal_count=signals)
            assert bc.c2 * fwe <= value <= c1_of(bc) * fwe, (kind, bc, value)
    assert covered >= _ALWAYS_BOUNDED
