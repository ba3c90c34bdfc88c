import random
import sys
import tracemalloc
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import literal_combine, random_spectrum
from plotkin_wef import WeightEnumerator, combine, combine_prefix, combine_single_weight
from plotkin_wef.combinatorics import shared_table

fractions = st.fractions(min_value=0, max_value=50, max_denominator=12)


def assert_matches_literal(u, v):
    expected = literal_combine(u, v)
    assert combine(u, v) == expected
    for w in range(2 * u.length + 1):
        assert combine_single_weight(u, v, w) == expected.coeffs[w]


def test_matches_literal_reference():
    """The kernel reproduces a from-scratch nested-sum evaluation exactly."""
    rng = random.Random(1234)
    for _ in range(25):
        n = rng.randint(1, 9)
        assert_matches_literal(random_spectrum(rng, n), random_spectrum(rng, n))


def test_dense_input_matches_literal_reference():
    rng = random.Random(77)
    u = random_spectrum(rng, 32, max_num=50, max_den=9)
    v = random_spectrum(rng, 32, max_num=50, max_den=9)
    assert_matches_literal(u, v)


def test_length_one():
    rng = random.Random(5)
    for _ in range(10):
        assert_matches_literal(random_spectrum(rng, 1), random_spectrum(rng, 1))


def test_zero_component_gives_zero_spectrum():
    rng = random.Random(9)
    for n in (1, 2, 7):
        zero = WeightEnumerator(n, (Fraction(0),) * (n + 1))
        other = random_spectrum(rng, n)
        for u, v in ((zero, other), (other, zero)):
            out = combine(u, v)
            assert out == WeightEnumerator(2 * n, (Fraction(0),) * (2 * n + 1))
            assert_matches_literal(u, v)


@st.composite
def sparse_spectrum(draw, n):
    """Rational spectra with the zero patterns of real component codes: only
    even weights, zero runs above weight 0 and below weight n, or all zero."""
    coeffs = draw(st.lists(fractions, min_size=n + 1, max_size=n + 1))
    shape = draw(st.sampled_from(("dense", "even", "gaps", "even-gaps", "zero")))
    if "even" in shape:
        coeffs[1::2] = [Fraction(0)] * len(coeffs[1::2])
    if "gaps" in shape:
        d = draw(st.integers(1, n))
        e = draw(st.integers(0, n - 1))
        for j in [*range(1, d), *range(n - e, n)]:
            coeffs[j] = Fraction(0)
    if shape == "zero":
        coeffs = [Fraction(0)] * (n + 1)
    return WeightEnumerator(n, tuple(coeffs))


@st.composite
def sparse_pairs(draw):
    n = draw(st.integers(1, 16))
    return n, draw(sparse_spectrum(n)), draw(sparse_spectrum(n))


@settings(max_examples=40, deadline=None)
@given(sparse_pairs())
def test_every_combine_path_matches_literal_sum(pair):
    n, u, v = pair
    expected = literal_combine(u, v).coeffs
    assert combine(u, v).coeffs == expected
    for w in range(2 * n + 2):
        assert combine_prefix(n, u.coeffs, v.coeffs, w) == expected[: w + 1]
    for w in range(2 * n + 1):
        assert combine_single_weight(u, v, w) == expected[w]


@settings(max_examples=40, deadline=None)
@given(sparse_pairs(), st.integers(0, 1))
def test_output_parity_follows_u_weights(pair, parity):
    """An output word has the parity of its u-part, so a u-spectrum supported
    on one parity gives zero coefficients at every weight of the other."""
    n, u, v = pair
    u = WeightEnumerator(
        n, tuple(c if j % 2 == parity else Fraction(0) for j, c in enumerate(u.coeffs))
    )
    out = combine(u, v).coeffs
    for w in range(1 - parity, 2 * n + 1, 2):
        assert out[w] == 0
        assert combine_single_weight(u, v, w) == 0


def test_working_memory_is_linear_in_n():
    """A dense n=128 combine allocates a small multiple of its output's size;
    an (n+1)^2-cell table of products is about 50 times that."""
    rng = random.Random(3)
    n = 128
    u = random_spectrum(rng, n, max_num=10**6, max_den=50)
    v = random_spectrum(rng, n, max_num=10**6, max_den=50)
    shared_table(n)  # the session-wide binomial table is not working memory
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = combine(u, v)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    out_bytes = sum(
        sys.getsizeof(c.numerator) + sys.getsizeof(c.denominator) for c in out.coeffs
    )
    # Measured at about 2.8 times the output on Python 3.11.
    assert peak < 6 * out_bytes
