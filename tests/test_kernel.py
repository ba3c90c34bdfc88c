import math
import random
import sys
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import literal_combine, random_spectrum
from plotkin_wef import (
    WeightEnumerator,
    combine,
    combine_int,
    combine_single_weight,
    common_denominator,
    fractions_over,
    kernel,
)
from plotkin_wef.combinatorics import plotkin_coefficient, shared_table

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
    even weights, zero runs above weight 0 and below weight n, or all zero;
    or palindromic (A_j = A_{n-j}), as for a code holding the all-ones word."""
    coeffs = draw(st.lists(fractions, min_size=n + 1, max_size=n + 1))
    shape = draw(
        st.sampled_from(("dense", "even", "gaps", "even-gaps", "zero", "palindromic"))
    )
    if shape == "palindromic":
        coeffs[n // 2 + 1 :] = coeffs[: (n + 1) // 2][::-1]
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
@given(sparse_pairs(), st.data())
def test_every_combine_path_matches_literal_sum(pair, data):
    n, u, v = pair
    expected = literal_combine(u, v).coeffs
    assert combine(u, v).coeffs == expected
    if v.coeffs == v.coeffs[::-1]:
        # Complementing the v-word maps output weight w to 2n - w.
        assert expected == expected[::-1]
    u_int, v_int = common_denominator(u.coeffs), common_denominator(v.coeffs)
    for w in range(2 * n + 2):
        assert fractions_over(*combine_int(n, u_int, v_int, w)) == expected[: w + 1]
    for w in range(2 * n + 1):
        assert combine_single_weight(u, v, w) == expected[w]
    hi = data.draw(st.integers(0, 2 * n), label="hi")
    lo = data.draw(st.integers(0, hi), label="lo")
    den, nums = combine_int(n, u_int, v_int, hi, lo)
    assert [Fraction(num, den) for num in nums] == list(expected[lo : hi + 1])


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


def count_kernel_ops(monkeypatch):
    """Count the kernel's big-int products and additions into the returned
    dict, under "mul" and "add"."""
    counts = {"mul": 0, "add": 0}

    def counting(name, op):
        def wrapped(a, b):
            counts[name] += 1
            return op(a, b)
        return wrapped

    monkeypatch.setattr(kernel, "mul", counting("mul", kernel.mul))
    monkeypatch.setattr(kernel, "add", counting("add", kernel.add))
    return counts


@pytest.mark.parametrize("w", (64, 100))
def test_single_weight_costs_one_diagonal(monkeypatch, w):
    """One weight w does at most t/2 + 1 big-int products and about
    (t+1)^2/2 additions, t = min(w, 2n - w, n); the prefix to w does
    hundreds to thousands of products at n = 64."""
    n = 64
    rng = random.Random(w)
    u = random_spectrum(rng, n, max_num=10**6, max_den=50)
    v = random_spectrum(rng, n, max_num=10**6, max_den=50)
    expected = combine(u, v).coeffs[w]
    counts = count_kernel_ops(monkeypatch)
    assert combine_single_weight(u, v, w) == expected
    t = min(w, 2 * n - w, n)
    assert counts["mul"] <= t // 2 + 1
    assert abs(counts["add"] - (t + 1) ** 2 / 2) <= t + 1


def test_palindromic_v_halves_the_products(monkeypatch):
    """A palindromic v-spectrum gives a palindromic output and palindromic
    binomial-sum columns, so the full combine evaluates the weights 0..n
    only, on the entries m <= (n - j)/2 of column j: (n/2 + 1)^2 products
    at even n instead of (n + 1)(n + 2)/2, and 1056 Pascal additions at
    n = 64 instead of 2080.  One changed coefficient of v loses the symmetry
    and restores the full counts."""
    n = 64
    rng = random.Random(64)
    u = random_spectrum(rng, n, max_num=10**6, max_den=50)
    half = random_spectrum(rng, n, max_num=10**6, max_den=50).coeffs
    palindromic = WeightEnumerator(n, half[: n // 2 + 1] + half[: n // 2][::-1])
    skewed = WeightEnumerator(n, palindromic.coeffs[:-1] + (palindromic.coeffs[-1] + 1,))
    counts = count_kernel_ops(monkeypatch)
    # Every product is added into the output once; the rest of the
    # additions are Pascal's.
    for v, products, pascal in ((palindromic, 1089, 1056), (skewed, 2145, 2080)):
        counts.update(mul=0, add=0)
        assert combine(u, v) == literal_combine(u, v)
        assert counts == {"mul": products, "add": products + pascal}


def scaled_v_hat(n, v_nums):
    """``v_hat`` as combine_int builds it, over the scale lcm(C(n, 0..n))."""
    scale = math.lcm(*(math.comb(n, b) for b in range(n + 1)))
    return scale, [num * (scale // math.comb(n, b)) for b, num in enumerate(v_nums)]


def unmirrored(n, u, v_hat, rows, hi):
    """The window 0..hi as two windows that both keep whole columns."""
    below = kernel.combine_numerators(n, u, v_hat, rows, 0, n)
    return below + kernel.combine_numerators(n, u, v_hat, rows, n + 1, hi)


@st.composite
def palindromic_kernel_inputs(draw):
    """Integer u with entries equal to 1 and, often, trailing zeros (its last
    nonzero weight below n), and a palindromic integer v, at odd and even n."""
    n = draw(st.integers(1, 17))
    u = draw(st.lists(st.sampled_from((0, 1, 1, 2, 7, 10**9)), min_size=n + 1, max_size=n + 1))
    zeros = draw(st.integers(0, n + 1))
    u[n + 1 - zeros :] = [0] * zeros
    half = draw(st.lists(st.integers(0, 20), min_size=n // 2 + 1, max_size=n // 2 + 1))
    v = half + half[: (n + 1) // 2][::-1]
    return n, u, v, draw(st.integers(n + 1, 2 * n))


@settings(max_examples=60, deadline=None)
@given(palindromic_kernel_inputs())
def test_mirrored_kernel_matches_unmirrored_window_and_literal_sum(inputs):
    """A window 0..hi (hi > n) over a palindromic v keeps half of every
    binomial-sum column and mirrors the output; the same weights in two
    windows keep whole columns, and the literal sum shares neither."""
    n, u, v, hi = inputs
    assert v == v[::-1]
    rows = shared_table(n).rows
    scale, v_hat = scaled_v_hat(n, v)
    nums = kernel.combine_numerators(n, u, v_hat, rows, 0, hi)
    assert nums == unmirrored(n, u, v_hat, rows, hi)
    expected = literal_combine(
        WeightEnumerator(n, tuple(map(Fraction, u))), WeightEnumerator(n, tuple(map(Fraction, v)))
    ).coeffs
    assert [Fraction(num, scale) for num in nums] == list(expected[: hi + 1])


class _Uncompletable(list):
    """A half row that fails the test if the kernel completes it."""

    def __add__(self, other):
        raise AssertionError("row completed")


def test_half_rows_read_past_their_middle_at_every_small_n():
    """Every window lo..hi with hi > n at n <= 9, over the shared table's
    half rows: a skewed v reads past the middle of rows[n-j], rows 0 and 1
    included (u is nonzero up to weight n), and so does a palindromic v in
    every window that is not mirrored, lo > 0.  The kernel reads those
    entries from the stored half and completes no row."""
    for n in range(1, 10):
        rows = [*map(_Uncompletable, shared_table(n).rows)]
        u = [(5 * j + 3) % 7 + 1 for j in range(n + 1)]
        skewed = [b * b + (5 * b) % 3 + 1 for b in range(n + 1)]
        palindromic = [min(b, n - b) + 2 for b in range(n + 1)]
        assert skewed != skewed[::-1]
        for v in (skewed, palindromic):
            scale, v_hat = scaled_v_hat(n, v)
            expected = literal_combine(
                WeightEnumerator(n, tuple(map(Fraction, u))),
                WeightEnumerator(n, tuple(map(Fraction, v))),
            ).coeffs
            for hi in range(n + 1, 2 * n + 1):
                for lo in range(hi + 1):
                    nums = kernel.combine_numerators(n, u, v_hat, rows, lo, hi)
                    assert [Fraction(num, scale) for num in nums] == list(expected[lo : hi + 1])


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


@lru_cache(maxsize=None)
def dense_pair_and_combine(n):
    rng = random.Random(n)
    u = random_spectrum(rng, n, max_num=10**6, max_den=50)
    v = random_spectrum(rng, n, max_num=10**6, max_den=50)
    return u, v, combine(u, v)


def literal_weight(u, v, w):
    """One output coefficient as the literal double sum of per-cell weights."""
    n = u.length
    return sum(
        (
            plotkin_coefficient(n, w, b, i) * v.coeffs[b] * u.coeffs[w - 2 * i]
            for b in range(max(0, w - n), min(w, n) + 1)
            for i in range(max(0, w - n), min(b, w - b) + 1)
        ),
        Fraction(0),
    )


def moment(coeffs, power):
    return sum((w**power * c for w, c in enumerate(coeffs)), Fraction(0))


# Lengths around a power of two, where rows of the binomial table and the
# scale lcm(C(n, 0..n)) change shape.
LARGE = (255, 256, 257)


@pytest.mark.parametrize("n", LARGE)
def test_large_dense_combine_conserves_mass_and_first_moment(n):
    """An output word has weight j + 2b - 2i with E[i] = j*b/n, so the first
    moment of the output follows from the first two of each component."""
    u, v, out = dense_pair_and_combine(n)
    m0u, m1u = moment(u.coeffs, 0), moment(u.coeffs, 1)
    m0v, m1v = moment(v.coeffs, 0), moment(v.coeffs, 1)
    assert sum(out.coeffs) == m0u * m0v
    assert moment(out.coeffs, 1) == m1u * m0v + 2 * m0u * m1v - 2 * m1u * m1v / n


@pytest.mark.parametrize("n", LARGE)
def test_large_dense_combine_matches_literal_sum_at_sampled_weights(n):
    u, v, out = dense_pair_and_combine(n)
    for w in (1, 64, n - 1, 2 * n - 3):
        assert out.coeffs[w] == literal_weight(u, v, w)


@pytest.mark.parametrize("n", LARGE)
def test_large_dense_single_weight_matches_full_combine(n):
    u, v, out = dense_pair_and_combine(n)
    for w in (0, 1, n - 1, n, n + 1, 2 * n - 1, 2 * n):
        assert combine_single_weight(u, v, w) == out.coeffs[w]


@pytest.mark.parametrize("n", LARGE)
def test_large_dense_prefix_matches_full_combine_and_literal_sum(n):
    u, v, out = dense_pair_and_combine(n)
    u_int = common_denominator(u.coeffs[:65])
    v_int = common_denominator(v.coeffs[:65])
    prefix = fractions_over(*combine_int(n, u_int, v_int, 64))
    assert prefix == out.coeffs[:65]
    for w in (0, 33, 63, 64):
        assert prefix[w] == literal_weight(u, v, w)


@pytest.mark.parametrize("n", LARGE)
def test_large_palindromic_combine_matches_unmirrored_window_and_literal_sum(n):
    """The half-column path at the lengths of ``LARGE``, where the dense
    pairs above never take it: a u with trailing zeros and entries 1, and
    a palindromic v."""
    rng = random.Random(n)
    u = [rng.choice((0, 1, rng.randrange(10**6))) for _ in range(n - 2)] + [0, 0, 0]
    half = [rng.randrange(1, 10**6) for _ in range(n // 2 + 1)]
    v = half + half[: (n + 1) // 2][::-1]
    rows = shared_table(n).rows
    scale, v_hat = scaled_v_hat(n, v)
    nums = kernel.combine_numerators(n, u, v_hat, rows, 0, 2 * n)
    assert nums == unmirrored(n, u, v_hat, rows, 2 * n)
    u_enum = WeightEnumerator(n, tuple(map(Fraction, u)))
    v_enum = WeightEnumerator(n, tuple(map(Fraction, v)))
    for w in (0, 1, 64, n - 1, n, n + 1, 2 * n - 3, 2 * n):
        assert Fraction(nums[w], scale) == literal_weight(u_enum, v_enum, w)
