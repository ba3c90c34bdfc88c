import math
from fractions import Fraction

import pytest

from plotkin_wef import (
    ChannelPoint,
    WeightEnumerator,
    combine,
    combine_single_weight,
    parse_poly,
    q_function,
    truncated_union_bound,
)

RM13 = parse_poly("1 + 14x^4 + x^8", 8)


def test_single_term_closed_form():
    enum = parse_poly("1 + x^5", 8)
    ch = ChannelPoint(rate=0.25, ebn0_db=2.0)
    gamma = 10.0 ** (2.0 / 10.0)
    expected = q_function(math.sqrt(2.0 * 5 * 0.25 * gamma))
    assert truncated_union_bound(enum, 8, ch) == expected


def test_monotone_in_truncation():
    ch = ChannelPoint(rate=0.5, ebn0_db=3.0)
    values = [truncated_union_bound(RM13, w, ch) for w in range(1, 9)]
    assert values == sorted(values)
    assert truncated_union_bound(RM13, 8, ch) >= truncated_union_bound(RM13, 4, ch)


def test_nonincreasing_in_snr_and_nonnegative():
    for ebn0 in (-3.0, 0.0, 2.0, 5.0, 9.0):
        lo = truncated_union_bound(RM13, 8, ChannelPoint(0.5, ebn0))
        hi = truncated_union_bound(RM13, 8, ChannelPoint(0.5, ebn0 + 1.0))
        assert 0.0 <= hi <= lo


def test_matches_high_precision_reference():
    """Within 1e-12 relative of an independently computed 50-digit value."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    mp.dps = 50
    gamma = mpmath.mpf(10) ** (mpmath.mpf(3) / 10)

    def q_hp(x):
        return mpmath.erfc(x / mpmath.sqrt(2)) / 2

    reference = 14 * q_hp(mpmath.sqrt(4 * gamma)) + q_hp(mpmath.sqrt(8 * gamma))
    value = truncated_union_bound(RM13, 8, ChannelPoint(rate=0.5, ebn0_db=3.0))
    assert abs(value - float(reference)) <= 1e-12 * float(reference)


@pytest.mark.parametrize("ebn0", (22.8, 23.0, 25.0))
def test_finite_coefficient_times_underflowing_q_matches_reference(ebn0):
    """A_4 = 10^300 is a finite float, but Q(x) at x > ~37.5 is below the
    normal floats, so the float product A_4 * Q(x) would read 0.0."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    big = 10**300
    x = mpmath.sqrt(8 * mpmath.mpf(10) ** (mpmath.mpf(ebn0) / 10))
    reference = float(big * mpmath.erfc(x / mpmath.sqrt(2)) / 2)
    enum = WeightEnumerator(4, (1, 0, 0, 0, big))
    value = truncated_union_bound(enum, 4, ChannelPoint(rate=1.0, ebn0_db=ebn0))
    assert abs(value - reference) <= 1e-8 * reference


def test_partial_spectrum_gives_same_bound():
    # Only weights <= W contribute, so a spectrum truncated beyond W agrees.
    ch = ChannelPoint(rate=0.5, ebn0_db=3.0)
    truncated = WeightEnumerator(8, RM13.coeffs[:5] + (0, 0, 0, 0))
    assert truncated_union_bound(truncated, 4, ch) == truncated_union_bound(
        RM13, 4, ch
    )


def test_single_weight_supplied_spectrum_matches_sliced_full():
    u = parse_poly("1 + x^3", 3)
    v = parse_poly("1 + 3x^2", 3)
    full = combine(u, v)
    W = 4
    partial = WeightEnumerator(
        6,
        tuple(
            combine_single_weight(u, v, w) if w <= W else Fraction(0)
            for w in range(7)
        ),
    )
    ch = ChannelPoint(rate=0.5, ebn0_db=2.0)
    assert truncated_union_bound(partial, W, ch) == truncated_union_bound(full, W, ch)


def test_truncation_range_errors():
    ch = ChannelPoint(rate=0.5, ebn0_db=3.0)
    with pytest.raises(ValueError):
        truncated_union_bound(RM13, 0, ch)
    with pytest.raises(ValueError):
        truncated_union_bound(RM13, 9, ch)


def test_channel_point_validation():
    with pytest.raises(ValueError):
        ChannelPoint(rate=0.0, ebn0_db=1.0)
    with pytest.raises(ValueError):
        ChannelPoint(rate=1.5, ebn0_db=1.0)
    with pytest.raises(ValueError):
        ChannelPoint(rate=0.5, ebn0_db=math.inf)
    assert ChannelPoint(rate=1.0, ebn0_db=-10.0).rate == 1.0
