import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import fresh_table_rows
from plotkin_wef import BinomialTable, combinatorics, plotkin_coefficient, shared_table
from plotkin_wef.combinatorics import extend_row, pascal_rows


def multiplicative_binomial(n, k):
    # Factorial-free product form; independent of the table's Pascal build.
    k = min(k, n - k)
    value = 1
    for i in range(1, k + 1):
        value = value * (n - k + i) // i
    return value


def test_table_matches_multiplicative_form():
    rows = shared_table(30).rows
    assert len(rows) >= 31
    for n, row in enumerate(rows[:31]):
        assert row == [multiplicative_binomial(n, k) for k in range(n // 2 + 1)]


def test_table_pascal_rule_and_row_sums():
    # Row n holds C(n, 0..n//2); C(n, k) above the middle is C(n, n - k).
    rows = shared_table(30).rows

    def entry(n, k):
        return rows[n][min(k, n - k)]

    for n in range(1, 31):
        middle = rows[n][-1] if n % 2 == 0 else 0
        assert 2 * sum(rows[n]) - middle == 2**n
        for k in range(1, n):
            assert entry(n, k) == entry(n - 1, k - 1) + entry(n - 1, k)


def test_shared_table_never_shrinks():
    grown = shared_table(10)
    assert len(grown.rows) >= 11
    assert shared_table(5) is grown


def test_grown_table_shares_existing_rows(monkeypatch):
    # Growth in uneven steps copies the list of rows, never a row, and
    # leaves the smaller generation as it was.
    monkeypatch.setattr(combinatorics, "_shared", BinomialTable([[1]]))
    small = shared_table(5)
    middle = shared_table(37)
    large = shared_table(300)
    assert [len(t.rows) for t in (small, middle, large)] == [6, 38, 301]
    assert all(middle.rows[a] is small.rows[a] for a in range(6))
    assert all(large.rows[a] is middle.rows[a] for a in range(38))
    assert large.rows == [[math.comb(a, b) for b in range(a // 2 + 1)] for a in range(301)]


def test_rows_stop_at_their_middle():
    rows = shared_table(300).rows
    assert all(len(rows[a]) == a // 2 + 1 for a in range(301))


@st.composite
def walk_cases(draw):
    n = draw(st.integers(0, 160))
    k = draw(st.sampled_from([n, 0, 1, max(0, (n - 1) // 2)]) | st.integers(0, n))
    # The walk's two callers: the shared table (k = n) and a truncated plan.
    return n, k if 2 * k < n else n


@settings(max_examples=200, deadline=None)
@given(walk_cases())
@example((0, 0))
@example((1, 0))
@example((2, 2))
@example((7, 0))
@example((8, 0))
@example((7, 1))
@example((8, 1))
@example((64, 31))
@example((160, 160))
def test_pascal_rows_match_math_comb(case):
    # Rows n-k..n from the empty row, row a to entry (a-n+k)//2: the half
    # rows 0..n when k = n, the band of a truncated plan when 2k < n; and
    # row n's prefix 0..k, the row the plan's scale is taken from.
    n, k = case
    rows = pascal_rows([], n - k, n, n - k)
    assert rows == [
        [math.comb(a, b) for b in range((a - n + k) // 2 + 1)] for a in range(n - k, n + 1)
    ]
    assert extend_row(rows[-1][: k + 1], n, k) == [math.comb(n, b) for b in range(k + 1)]


def test_plotkin_coefficient_known_values():
    assert plotkin_coefficient(3, 4, 2, 1) == Fraction(2, 3)
    assert plotkin_coefficient(3, 3, 0, 0) == 1
    assert plotkin_coefficient(3, 4, 2, 2) == 1
    # Direct evaluation of the formula; the inert cell multiplying a zero
    # component count is still 1/3, not 1.
    assert plotkin_coefficient(3, 5, 2, 2) == Fraction(1, 3)


def test_plotkin_coefficient_rejects_out_of_box_arguments():
    with pytest.raises(ValueError):
        plotkin_coefficient(3, 7, 0, 0)  # w > 2n
    with pytest.raises(ValueError):
        plotkin_coefficient(3, 4, 0, 0)  # v_weight below max(0, w-n)
    with pytest.raises(ValueError):
        plotkin_coefficient(3, 2, 3, 0)  # v_weight above min(w, n)
    with pytest.raises(ValueError):
        plotkin_coefficient(3, 2, 2, 2)  # v_only above min(v_weight, w-v_weight)
    with pytest.raises(ValueError):
        plotkin_coefficient(3, 5, 3, 1)  # v_only below max(0, w-n)
    with pytest.raises(ValueError):
        plotkin_coefficient(0, 0, 0, 0)  # n < 1


def test_plotkin_coefficient_nonnegative_on_whole_box():
    for n in range(1, 7):
        for w in range(2 * n + 1):
            lo = max(0, w - n)
            for wv in range(lo, min(w, n) + 1):
                for vo in range(lo, min(wv, w - wv) + 1):
                    assert plotkin_coefficient(n, w, wv, vo) >= 0


def test_vandermonde_identity():
    # sum_i C(w-wv, i) C(n-w+wv, wv-i) == C(n, wv), with the out-of-support
    # convention silently dropping impossible i.
    for n in range(1, 21):
        for w in range(2 * n + 1):
            for wv in range(max(0, w - n), min(w, n) + 1):
                total = sum(
                    math.comb(w - wv, i) * math.comb(n - w + wv, wv - i)
                    for i in range(wv + 1)
                )
                assert total == math.comb(n, wv)


def test_plotkin_coefficient_does_not_grow_the_table():
    table = shared_table(0)
    n = len(table.rows) + 1000
    assert plotkin_coefficient(n, 3, 1, 1) == Fraction(n - 1, n)
    assert shared_table(0) is table


def test_plotkin_coefficient_matches_the_table_formula():
    c = math.comb
    for n in range(1, 10):
        for w in range(2 * n + 1):
            lo = max(0, w - n)
            for wv in range(lo, min(w, n) + 1):
                for vo in range(lo, min(wv, w - wv) + 1):
                    a = w - wv
                    expected = Fraction(
                        c(n, a) * c(a, vo) * c(n - a, wv - vo), c(n, wv) * c(n, w - 2 * vo)
                    )
                    assert plotkin_coefficient(n, w, wv, vo) == expected


@pytest.mark.parametrize(
    "argv, rows", [((), 1), (("rm", "3", "8"), 129)], ids=["import", "rm-3-8"]
)
def test_shared_table_holds_rows_up_to_the_largest_full_plan(argv, rows):
    # Importing the package builds row 0 only; rm(3, 8), of length 256,
    # asks for full plans up to n = 128.
    assert fresh_table_rows(*argv) == rows
