import random
from fractions import Fraction

from helpers import literal_combine, random_spectrum
from plotkin_wef import WeightEnumerator, combine, combine_single_weight


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
