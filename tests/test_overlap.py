from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mode2cap import overlap_distribution

from oracles import overlap_distribution_oracle


def test_single_placement_always_full_overlap():
    dist = overlap_distribution(3, 3)
    assert dist == (0.0, 0.0, 0.0, 1.0)


def test_two_subchannels_single_width():
    # 4 ordered start pairs: 2 disjoint, 2 coincide
    assert overlap_distribution(2, 1) == (0.5, 0.5)
    assert overlap_distribution_oracle(2, 1) == (0.5, 0.5)


def test_reference_bandwidth_and_width():
    dist = overlap_distribution(10, 3)
    expect = (Fraction(30, 64), Fraction(12, 64), Fraction(14, 64), Fraction(8, 64))
    for got, want in zip(dist, expect):
        assert got == pytest.approx(float(want), abs=1e-15)
    assert overlap_distribution_oracle(10, 3) == dist


@pytest.mark.parametrize("b,m", [(2, 1), (6, 3), (8, 4), (10, 5)])
def test_boundary_twice_width_equals_bandwidth(b, m):
    # the zero-overlap expression must hold at 2M == B as well
    closed = overlap_distribution(b, m)
    oracle = overlap_distribution_oracle(b, m)
    for got, want in zip(closed, oracle):
        assert got == pytest.approx(want, abs=1e-12)


def test_closed_form_matches_oracle_small_grid():
    # both divide the same integer counts by the same total, so they agree
    # exactly, every 1 <= M <= B <= 40
    for b in range(1, 41):
        for m in range(1, b + 1):
            counted = overlap_distribution(b, m)
            assert len(counted) == m + 1
            assert counted == overlap_distribution_oracle(b, m)


@given(st.integers(min_value=1, max_value=24).flatmap(
    lambda b: st.tuples(st.just(b), st.integers(min_value=1, max_value=b))))
def test_distribution_invariants(bm):
    b, m = bm
    probs = overlap_distribution(b, m)
    assert all(0.0 <= x <= 1.0 for x in probs)
    assert sum(probs) == pytest.approx(1.0, abs=1e-12)
    # impossible small overlaps below 2M - B, except the m = 0 slot
    for ov in range(1, max(0, 2 * m - b)):
        assert probs[ov] == 0.0
    # full overlap has the simple closed form
    assert probs[m] == pytest.approx(1.0 / (b + 1 - m), abs=1e-15)


def test_oracle_pair_symmetry():
    # ordered pair (s1, s2) and its swap contribute the same overlap
    b, m = 9, 4
    starts = range(b - m + 1)
    for s1 in starts:
        for s2 in starts:
            ov12 = max(0, min(s1, s2) + m - max(s1, s2))
            ov21 = max(0, min(s2, s1) + m - max(s2, s1))
            assert ov12 == ov21


@pytest.mark.parametrize("b,m", [(5, 0), (5, 6), (0, 1)])
def test_preconditions(b, m):
    with pytest.raises(ValueError):
        overlap_distribution(b, m)
    with pytest.raises(ValueError):
        overlap_distribution_oracle(b, m)
