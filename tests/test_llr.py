"""Tests for the order-statistic view of an LLR vector and the gap oracle."""

import math

import numpy as np
import pytest

from oracles import gap_at, labels
from seqgap import order_view


def test_order_view_hand_trace_with_ties():
    """Ties break toward the lowest column."""
    lam = np.array([-2.0, 3.0, 3.0, -1.0])
    view = order_view(lam)
    np.testing.assert_allclose(lam[view.ranking], [3.0, 3.0, -1.0, -2.0])
    assert tuple(view.ranking) == (1, 2, 3, 0)
    assert view.positive_count == 2


def test_order_view_top_labels():
    """The first k columns of the ranking are the k largest statistics."""
    view = order_view(np.array([-2.0, 3.0, 3.0, -1.0]))
    assert labels(np.isin(range(4), view.ranking[:0])) == frozenset()
    assert labels(np.isin(range(4), view.ranking[:1])) == frozenset({2})
    assert labels(np.isin(range(4), view.ranking[:2])) == frozenset({2, 3})
    assert labels(np.isin(range(4), view.ranking[:3])) == frozenset({2, 3, 4})


def test_gap_at_interior():
    lam = np.array([-2.0, 3.0, 3.0, -1.0])
    assert gap_at(lam, 1) == pytest.approx(0.0)
    assert gap_at(lam, 2) == pytest.approx(4.0)  # 3 - (-1)
    assert gap_at(lam, 3) == pytest.approx(1.0)


def test_gap_at_sentinels_are_infinite():
    """k=0 and k=J compare against +inf / -inf order statistics."""
    lam = np.array([1.0, 2.0])
    assert math.isinf(gap_at(lam, 0))
    assert math.isinf(gap_at(lam, 2))


def test_gap_at_rejects_out_of_range():
    lam = np.array([1.0, 2.0])
    with pytest.raises(ValueError):
        gap_at(lam, -1)
    with pytest.raises(ValueError):
        gap_at(lam, 3)


def test_order_view_random_consistency():
    """ranking inverts the sort and positive_count counts lam > 0."""
    rng = np.random.default_rng(123)
    for _ in range(200):
        j = int(rng.integers(2, 12))
        lam = np.round(rng.normal(size=j), 2)  # rounding forces ties
        view = order_view(lam)
        ranked = lam[view.ranking]
        np.testing.assert_array_equal(ranked, np.sort(lam)[::-1])
        assert view.positive_count == int((lam > 0).sum())
        # stable tie-break: equal values appear in increasing column order
        for k in range(j - 1):
            if ranked[k] == ranked[k + 1]:
                assert view.ranking[k] < view.ranking[k + 1]
