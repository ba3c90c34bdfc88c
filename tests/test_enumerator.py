import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import any_int_digits
from plotkin_wef import BudgetError, WeightEnumerator, format_poly
from plotkin_wef.cli import _record
from plotkin_wef.enumerator import (
    _reduce_groups,
    common_denominator,
    spectrum_from_json,
    spectrum_to_json,
)


def spectra(max_n=10):
    return st.integers(0, max_n).flatmap(
        lambda n: st.lists(
            st.fractions(min_value=0, max_value=30, max_denominator=12),
            min_size=n + 1,
            max_size=n + 1,
        ).map(lambda coeffs: WeightEnumerator(n, tuple(coeffs)))
    )


def test_a_huge_exponent_is_refused_before_it_is_expanded():
    with pytest.raises(BudgetError, match="decimal exponent above 4300"):
        WeightEnumerator(1, ["1e20000000", 1])
    assert WeightEnumerator(1, ["1e3", "2.5e-2"]).coeffs == (1000, Fraction(1, 40))


def test_format_examples():
    assert format_poly(WeightEnumerator(6, (1, 0, 0, 4, 3, 0, 0))) == "1 + 4x^3 + 3x^4"
    assert format_poly(WeightEnumerator(2, (0, 0, 0))) == "0"
    assert (
        format_poly(WeightEnumerator(3, (1, 1, 0, Fraction(2, 3)))) == "1 + x + 2/3x^3"
    )
    assert format_poly(WeightEnumerator(8, (1, 0, 0, 0, 14, 0, 0, 0, 1))) == "1 + 14x^4 + x^8"


@given(spectra())
def test_format_writes_each_nonzero_term_in_ascending_order(enum):
    terms = []
    for w, c in enumerate(enum.coeffs):
        if c:
            x = "" if w == 0 else "x" if w == 1 else f"x^{w}"
            terms.append(x if c == 1 and w else f"{c}{x}")
    assert format_poly(enum) == (" + ".join(terms) or "0")


def test_total_mass_examples():
    # In integer form the mass is sum(nums) / den.
    for coeffs, mass in [
        ((1, 0, 0, 4, 3, 0, 0), 8), ((1, 0, 0, 0), 1), ((1, 0, 0, 0, 14, 0, 0, 0, 1), 16),
        ((Fraction(1, 3), Fraction(2, 3)), 1),
    ]:
        den, nums = common_denominator(coeffs)
        assert sum(nums) == mass * den


def test_min_positive_weight_examples():
    # A CLI record's min_positive_weight is read off its spectrum JSON.
    for coeffs, weight in [
        ((1, 0, 0, 4, 3, 0, 0), 3), ((1, 0, 0, 0), None), ((1, 0, 0, 0, 14, 0, 0, 0, 1), 4),
    ]:
        spectrum = spectrum_to_json(len(coeffs) - 1, *common_denominator(coeffs))
        assert _record("rm", None, None, spectrum, None)["min_positive_weight"] == weight


def test_constructor_validation():
    with pytest.raises(ValueError):
        WeightEnumerator(2, (1, 0))  # wrong count
    with pytest.raises(ValueError):
        WeightEnumerator(1, (1, -1))  # negative
    with pytest.raises(TypeError):
        WeightEnumerator(1, (1, 0.5))  # float
    with pytest.raises(ValueError):
        WeightEnumerator(-1, ())


def test_common_denominator_form():
    enum = WeightEnumerator(2, (1, Fraction(2, 3), Fraction(1, 4)))
    den, nums = common_denominator(enum.coeffs)
    assert den == 12
    assert nums == [12, 8, 3]
    assert all(Fraction(p, den) == c for p, c in zip(nums, enum.coeffs))


def test_json_round_trip_and_zero_omission():
    enum = WeightEnumerator(5, (1, 0, Fraction(2, 3), 0, 0, 4))
    obj = enum.to_json_dict()
    assert obj == {"n": 5, "coeffs": {"0": "1", "2": "2/3", "5": "4"}}
    assert WeightEnumerator.from_json_dict(obj) == enum


def test_json_accepts_bare_integers():
    enum = WeightEnumerator.from_json_dict({"n": 2, "coeffs": {"0": 1, "2": 3}})
    assert enum.coeffs == (1, 0, 3)


def test_json_validation():
    with pytest.raises(ValueError):
        WeightEnumerator.from_json_dict({"coeffs": {}})
    with pytest.raises(ValueError):
        WeightEnumerator.from_json_dict({"n": -1, "coeffs": {}})
    with pytest.raises(ValueError):
        WeightEnumerator.from_json_dict({"n": 2, "coeffs": {"5": "1"}})
    with pytest.raises(ValueError):
        WeightEnumerator.from_json_dict({"n": 2, "coeffs": {"one": "1"}})
    with pytest.raises(ValueError):
        WeightEnumerator.from_json_dict({"n": 2, "coeffs": {"1": 0.25}})


def test_str_is_poly_form():
    assert str(WeightEnumerator(3, (1, 0, 3, 0))) == "1 + 3x^2"


def fraction_path(obj, max_weight=None):
    """The spectrum read through one Fraction per coefficient, as
    ``from_json_dict`` read it before the integer-form parser: its
    ``common_denominator`` and its canonical JSON, or the exception.  With
    ``max_weight`` W, the common denominator is that of the coefficients
    0..W and the numerators above W are 0."""
    n = obj["n"]
    coeffs = [Fraction(0)] * (n + 1)
    for key, value in obj["coeffs"].items():
        w = int(key)
        if isinstance(value, float):
            raise ValueError(f"coefficient of x^{w} is a float; exact values only")
        if isinstance(value, int) and not isinstance(value, bool):
            coeffs[w] = Fraction(value)
        elif isinstance(value, str):
            try:
                coeffs[w] = Fraction(value)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {value!r}") from None
        else:
            raise TypeError(
                "coefficients must be exact (int, Fraction or 'p/q' string),"
                f" got {type(value).__name__}"
            )
    enum = WeightEnumerator(n, tuple(coeffs))
    top = n if max_weight is None else max(min(max_weight, n), -1)
    den, nums = common_denominator(enum.coeffs[: top + 1])
    return (den, nums + [0] * (n - top)), enum.to_json_dict()


big = st.integers(0, 10**40)
coefficient_values = (
    big.map(str)
    | st.tuples(big, st.integers(1, 10**40)).map(lambda pq: f"{pq[0]}/{pq[1]}")
    | st.tuples(st.integers(1, 3), big).map(lambda zp: "0" * zp[0] + str(zp[1]))
    | st.tuples(big, st.integers(1, 3), st.integers(1, 10**6)).map(
        lambda pzq: f"{pzq[0]}/{'0' * pzq[1]}{pzq[2]}"
    )
    | st.sampled_from([
        "4/6", "007", "3/04", "2/1", " 3/4 ", "+3", "1.5", "1e3", "3_000", "0/0",
        "-1", "-2/4", "1/0", "0", "00", "0/7", "-0", "", "x", "3/", "/4", "1/-2",
        "0x10", "\u0663", "\u0663/\u0664", "\u00b2", "1" * 5000, "1/" + "1" * 5000,
    ])
    | st.integers(-3, 10**30)
    | st.booleans()
    | st.floats()
    | st.none()
    | st.just([1])
)


@st.composite
def mixed_spectrum_json(draw):
    n = draw(st.integers(0, 6))
    weights = st.integers(0, n).flatmap(lambda w: st.sampled_from([str(w), f"0{w}", f" {w}"]))
    # Values from a small pool repeat, as in a palindromic spectrum.
    pool = draw(st.lists(coefficient_values, min_size=1, max_size=2))
    values = coefficient_values | st.sampled_from(pool)
    return {"n": n, "coeffs": draw(st.dictionaries(weights, values, max_size=n + 2))}


# Denominators with small factors, a prime, 1, and any size.
shared_denominators = st.sampled_from([1, 2, 6, 12, 360, 2**61 - 1]) | st.integers(1, 10**30)


def numerators_over(q):
    """Numerators p of p/q: any, 0, multiples of q (p mod q = 0) and ones
    that share a factor with q."""
    return st.one_of(
        st.integers(0, 10**40),
        st.just(0),
        st.integers(0, 10**6).map(lambda k: k * q),
        st.tuples(st.integers(0, 10**6), st.integers(1, 10**12)).map(
            lambda km: km[0] * math.gcd(q, km[1])
        ),
    )


@st.composite
def shared_denominator_json(draw):
    """Spectra whose "p/q" texts share one or two denominators, which the
    parser reduces a denominator at a time: leading zeros in p or q, groups
    of one text, palindromic layouts, and a weight spelled "1", "01" and
    " 1" among plain and invalid values."""
    n = draw(st.integers(0, 8))
    qs = draw(st.lists(shared_denominators, min_size=1, max_size=2))
    over = []
    for q in qs:
        den = draw(st.sampled_from(["", "0", "00"])) + str(q)
        over.append(
            st.tuples(st.sampled_from(["", "0"]), numerators_over(q)).map(
                lambda zp, den=den: f"{zp[0]}{zp[1]}/{den}"
            )
        )
    others = st.sampled_from(["1", "07", "0", "5/1", "4/6", "1/0", "x", "-2/4", " 3/4 "])
    values = st.one_of(*over, others | st.integers(-1, 10**30) | st.floats() | st.none())
    if draw(st.booleans()):
        half = draw(st.lists(values, min_size=n // 2 + 1, max_size=n // 2 + 1))
        return {"n": n, "coeffs": {str(w): half[min(w, n - w)] for w in range(n + 1)}}
    weights = st.integers(0, n).flatmap(lambda w: st.sampled_from([str(w), f"0{w}", f" {w}"]))
    return {"n": n, "coeffs": draw(st.dictionaries(weights, values, max_size=n + 3))}


def spectrum_json():
    return mixed_spectrum_json() | shared_denominator_json()


@given(spectrum_json(), st.none() | st.integers(-1, 7))
@example({"n": 5, "coeffs": {"0": "1", "1": "2/3", "2": "007", "3": "00", "4": "5/10", "5": 9}}, 1)
@example({"n": 2, "coeffs": {"0": "1", "1": "-1", "2": "x"}}, 0)
# A digit text above the limit on int() raises above W as it does below.
@example({"n": 1, "coeffs": {"1": "1" * 5000}}, 0)
@example(
    {"n": 3, "coeffs": {"1": "4/12", "2": "6/012", "01": "0/12", "3": "10/12", " 1": "3/9"}}, 1
)
@example({"n": 2, "coeffs": {"1": "2/6", "01": "x", " 1": "1/6", "2": "1/0"}}, None)
@example({"n": 4, "coeffs": {"0": "3/6", "1": "6/6", "2": "0/6", "3": "6/6", "4": "3/6"}}, 2)
@example({"n": 2, "coeffs": {"0": "5/06", "1": "7/06", "2": "05/6", "02": "02/6"}}, None)
# A zero denominator, alone or spelled "00", raises where it stands.
@example({"n": 2, "coeffs": {"0": "1/3", "1": "2/0", "2": "1/3"}}, None)
@example({"n": 2, "coeffs": {"0": "0/00", "1": "2/00"}}, 0)
# A text past the limit on int() raises where it stands, before a later
# key's error: a "p/q" whose denominator alone is past it, and a plain
# integer above W.
@example({"n": 2, "coeffs": {"1": "1/" + "1" * 5000, "x": "1"}}, None)
@example({"n": 2, "coeffs": {"2": "1" * 5000, "0": 1.5}}, 0)
def test_spectrum_from_json_matches_the_fraction_path(obj, max_weight):
    try:
        expected = fraction_path(obj, max_weight)
    except (ValueError, TypeError) as exc:
        with pytest.raises(type(exc)) as excinfo:
            spectrum_from_json(obj, max_weight)
        assert str(excinfo.value) == str(exc)
        return
    den, nums, echo = spectrum_from_json(obj, max_weight)
    assert ((den, nums), echo) == expected
    assert WeightEnumerator.from_json_dict(obj).to_json_dict() == echo


# Denominator texts as the parser files them: q, zero-padded or not, and
# for q = 1 also "1", "01" and "", under which a plain integer "p" is filed.
denominator_texts = st.sampled_from(["", "1", "01"]) | st.tuples(
    st.sampled_from(["", "0"]), shared_denominators
).map(lambda zq: zq[0] + str(zq[1]))


@given(denominator_texts, st.data())
def test_group_reduction_matches_a_gcd_per_text(den, data):
    q = int(den) if den else 1
    padded = st.tuples(st.sampled_from(["", "00"]), numerators_over(q))
    nums = data.draw(st.lists(padded.map(lambda zp: zp[0] + str(zp[1])), min_size=1, max_size=12))
    texts = {f"{num}/{den}" if den else num: num.encode() for num in nums}
    reduced = _reduce_groups({den.encode(): texts})
    assert reduced.keys() == texts.keys()
    for text, num in texts.items():
        p = int(num)
        g = math.gcd(p, q)
        assert reduced[text] == (p // g, q // g, str(Fraction(p, q)))


huge = st.integers(10**4999, 10**5000 - 1)
rational_coefficients = (
    st.just(Fraction(0))
    | st.integers(0, 10**30).map(Fraction)
    | st.fractions(min_value=0, max_value=10**6, max_denominator=10**9)
    | huge.map(Fraction)
    | st.tuples(huge, st.integers(1, 10**9)).map(lambda pq: Fraction(*pq))
)
rational_enumerators = st.integers(0, 8).flatmap(
    lambda n: st.lists(rational_coefficients, min_size=n + 1, max_size=n + 1).map(
        lambda coeffs: WeightEnumerator(n, tuple(coeffs))
    )
)


@given(rational_enumerators)
@example(WeightEnumerator(0, (0,)))
@example(WeightEnumerator(4, (0, 0, 0, 0, 0)))
def test_to_json_dict_writes_each_coefficient_in_lowest_terms(enum):
    # The reference: one str(Fraction) per nonzero coefficient.
    with any_int_digits():
        expected = {
            "n": enum.length,
            "coeffs": {str(w): str(c) for w, c in enumerate(enum.coeffs) if c},
        }
        assert enum.to_json_dict() == expected


@st.composite
def integer_forms(draw):
    """(n, den, nums): coefficient w is nums[w] / den, not necessarily over
    the least common denominator, and sometimes palindromic."""
    n = draw(st.integers(0, 8))
    den = draw(st.integers(1, 10**12))
    nums = draw(
        st.lists(st.just(0) | st.integers(0, 10**15), min_size=n + 1, max_size=n + 1)
    )
    if draw(st.booleans()):
        nums = [nums[min(w, n - w)] for w in range(n + 1)]
    scale = draw(st.sampled_from([1, 2, 6, 10**20]))
    return n, den * scale, [num * scale for num in nums]


@given(integer_forms())
@example((3, 12, [0, 0, 0, 0]))
@example((4, 6, [6, 3, 4, 3, 6]))
def test_spectrum_to_json_is_inverted_by_spectrum_from_json(form):
    n, den, nums = form
    obj = spectrum_to_json(n, den, nums)
    lcd_den, lcd_nums = common_denominator([Fraction(num, den) for num in nums])
    assert spectrum_from_json(obj) == (lcd_den, lcd_nums, obj)
