import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plotkin_wef import (
    ChannelPoint,
    WeightEnumerator,
    combine,
    combine_single_weight,
    q_function,
    truncated_union_bound,
)
from plotkin_wef.bounds import _argument_beyond_float_range, _log_q_function
from plotkin_wef.enumerator import common_denominator


def bound(enum, truncate, channel):
    """The bound of a WeightEnumerator, through its integer form."""
    return truncated_union_bound(common_denominator(enum.coeffs), truncate, channel)


RM13 = WeightEnumerator(8, (1, 0, 0, 0, 14, 0, 0, 0, 1))


def test_single_term_closed_form():
    enum = WeightEnumerator(8, (1, 0, 0, 0, 0, 1, 0, 0, 0))
    ch = ChannelPoint(rate=0.25, ebn0_db=2.0)
    gamma = 10.0 ** (2.0 / 10.0)
    expected = q_function(math.sqrt(2.0 * 5 * 0.25 * gamma))
    assert bound(enum, 8, ch) == expected


def test_monotone_in_truncation():
    ch = ChannelPoint(rate=0.5, ebn0_db=3.0)
    values = [bound(RM13, w, ch) for w in range(1, 9)]
    assert values == sorted(values)
    assert bound(RM13, 8, ch) >= bound(RM13, 4, ch)


def test_nonincreasing_in_snr_and_nonnegative():
    for ebn0 in (-3.0, 0.0, 2.0, 5.0, 9.0):
        lo = bound(RM13, 8, ChannelPoint(0.5, ebn0))
        hi = bound(RM13, 8, ChannelPoint(0.5, ebn0 + 1.0))
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
    value = bound(RM13, 8, ChannelPoint(rate=0.5, ebn0_db=3.0))
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
    value = bound(enum, 4, ChannelPoint(rate=1.0, ebn0_db=ebn0))
    assert abs(value - reference) <= 1e-8 * reference


def test_partial_spectrum_gives_same_bound():
    # Only weights <= W contribute, so a spectrum truncated beyond W agrees.
    ch = ChannelPoint(rate=0.5, ebn0_db=3.0)
    truncated = WeightEnumerator(8, RM13.coeffs[:5] + (0, 0, 0, 0))
    assert bound(truncated, 4, ch) == bound(
        RM13, 4, ch
    )


def test_single_weight_supplied_spectrum_matches_sliced_full():
    u = WeightEnumerator(3, (1, 0, 0, 1))
    v = WeightEnumerator(3, (1, 0, 3, 0))
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
    assert bound(partial, W, ch) == bound(full, W, ch)


def test_truncation_range_errors():
    ch = ChannelPoint(rate=0.5, ebn0_db=3.0)
    with pytest.raises(ValueError):
        bound(RM13, 0, ch)
    with pytest.raises(ValueError):
        bound(RM13, 9, ch)


def test_channel_point_validation():
    with pytest.raises(ValueError):
        ChannelPoint(rate=0.0, ebn0_db=1.0)
    with pytest.raises(ValueError):
        ChannelPoint(rate=1.5, ebn0_db=1.0)
    with pytest.raises(ValueError):
        ChannelPoint(rate=0.5, ebn0_db=math.inf)
    assert ChannelPoint(rate=1.0, ebn0_db=-10.0).rate == 1.0


def reference_bound(coeffs, truncate, channel):
    """The bound of Fraction coefficients by the formula of the Fraction
    path: each term float(c) * Q(x), else exp(log(c.numerator) -
    log(c.denominator) + log Q(x)) when that overflows or Q(x) is below the
    normal floats; Q(inf) terms are 0."""
    try:
        gamma = 10.0 ** (channel.ebn0_db / 10.0)
    except OverflowError:
        gamma = None
    total = 0.0
    for w in range(1, truncate + 1):
        c = coeffs[w]
        if not c:
            continue
        if gamma is None:
            x = _argument_beyond_float_range(w, channel)
        else:
            x = math.sqrt(2.0 * w * channel.rate * gamma)
        if x == math.inf:
            continue
        q = q_function(x)
        term = None
        if q >= sys.float_info.min:
            try:
                term = float(c) * q
            except OverflowError:
                pass
        if term is None:
            try:
                term = math.exp(
                    math.log(c.numerator) - math.log(c.denominator) + _log_q_function(x)
                )
            except OverflowError:
                term = math.inf
        total += term
    if not math.isfinite(total):
        raise ValueError("union bound exceeds float range at this channel point")
    return total


# Numerators and denominators up to ~1400 bits, so that quotients beyond
# float range and quotients below it both occur.
_INTS = st.one_of(st.integers(1, 2**64), st.integers(2**1000, 2**1400))
_NUMS = st.lists(st.one_of(st.just(0), _INTS), min_size=2, max_size=10)
# Q(x) is a normal float, below the normal floats (x > ~37.5, e.g. above
# about 28.5 dB at rate 1 and w = 1), or of an x beyond float range; gamma
# overflows above about 3082.5 dB.
_EBN0 = st.one_of(
    st.floats(-30.0, 60.0), st.floats(3000.0, 3100.0), st.floats(6000.0, 7000.0)
)


@settings(max_examples=300, deadline=None)
@given(
    _INTS, _NUMS, st.integers(1, 2**80), st.floats(1e-6, 1.0), _EBN0, st.integers(1, 9)
)
@example(3, [1, 10**400, 0, 1], 7, 1.0, 25.0, 3)  # A_1 beyond float range, not in lowest terms
@example(7, [0, 10**300, 2**1100], 3, 1.0, 30.0, 2)  # Q(x) below the normals
@example(1, [1, 3, 0, 5], 2**70, 0.5, 3100.0, 3)  # gamma overflows
@example(1, [1, 1, 1], 1, 1.0, 7000.0, 2)  # x beyond float range
@example(3, [0, 2**1100, 2**1100], 5, 1.0, -20.0, 2)  # sum beyond float range
def test_integer_form_matches_the_fraction_formula(den, nums, k, rate, ebn0, truncate):
    """(k * den, k * nums) gives the float of the Fraction formula, ==, also
    when the pair is not in lowest terms; the same ValueError when the sum
    leaves float range."""
    truncate = min(truncate, len(nums) - 1)
    channel = ChannelPoint(rate, ebn0)
    coeffs = [Fraction(num, den) for num in nums]
    pair = (k * den, [k * num for num in nums])
    try:
        want = reference_bound(coeffs, truncate, channel)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            truncated_union_bound(pair, truncate, channel)
    else:
        assert truncated_union_bound(pair, truncate, channel) == want


def test_integer_form_errors():
    ch = ChannelPoint(rate=0.5, ebn0_db=3.0)
    with pytest.raises(ValueError, match="denominator must be positive"):
        truncated_union_bound((0, [1, 1]), 1, ch)
    with pytest.raises(ValueError, match="denominator must be positive"):
        truncated_union_bound((-2, [1, 1]), 1, ch)
    with pytest.raises(ValueError, match=r"coefficient of x\^2 is negative: -1/4"):
        truncated_union_bound((4, [4, 0, -1, 1]), 3, ch)
    # Only the weights 1..truncate are read.
    assert truncated_union_bound((4, [-4, 4, -3]), 1, ch) == bound(
        WeightEnumerator(2, (1, 1, 0)), 1, ch
    )
