from fractions import Fraction

import pytest

from plotkin_wef import BinomialTable, binomial, plotkin_coefficient, shared_table


def multiplicative_binomial(n, k):
    # Factorial-free product form; independent of the table's Pascal build.
    if k < 0 or k > n:
        return 0
    k = min(k, n - k)
    value = 1
    for i in range(1, k + 1):
        value = value * (n - k + i) // i
    return value


def test_binomial_small_values():
    assert binomial(3, 2) == 3
    assert binomial(6, 3) == 20
    assert binomial(5, 7) == 0
    assert binomial(5, -1) == 0
    assert binomial(0, 0) == 1


def test_binomial_rejects_negative_n():
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_table_matches_multiplicative_form():
    table = BinomialTable(30)
    for n in range(31):
        for k in range(-1, n + 2):
            assert table.binomial(n, k) == multiplicative_binomial(n, k)


def test_table_pascal_rule_and_row_sums():
    table = BinomialTable(30)
    for n in range(1, 31):
        assert sum(table.rows[n]) == 2**n
        for k in range(1, n):
            assert table.rows[n][k] == table.rows[n - 1][k - 1] + table.rows[n - 1][k]


def test_table_rejects_rows_outside_range():
    table = BinomialTable(4)
    with pytest.raises(ValueError):
        table.binomial(5, 2)
    with pytest.raises(ValueError):
        table.binomial(-1, 0)
    with pytest.raises(ValueError):
        BinomialTable(-1)


def test_shared_table_never_shrinks():
    grown = shared_table(10)
    assert grown.max_n >= 10
    assert shared_table(5).max_n >= grown.max_n


def test_grown_table_shares_existing_rows():
    small = BinomialTable(10)
    grown = BinomialTable._grown(small, 20)
    assert grown.max_n == 20
    assert grown.rows[10] is small.rows[10]
    assert grown.binomial(20, 10) == multiplicative_binomial(20, 10)


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
                    binomial(w - wv, i) * binomial(n - w + wv, wv - i)
                    for i in range(wv + 1)
                )
                assert total == binomial(n, wv)


def test_binomial_and_plotkin_coefficient_do_not_grow_the_table():
    before = shared_table(0).max_n
    n = before + 1000
    assert binomial(n, 3) == multiplicative_binomial(n, 3)
    assert binomial(n, n + 1) == 0 and binomial(n, -2) == 0
    assert plotkin_coefficient(n, 3, 1, 1) == Fraction(n - 1, n)
    assert shared_table(0).max_n == before


def test_plotkin_coefficient_matches_the_table_formula():
    table = BinomialTable(9)
    b = table.binomial
    for n in range(1, 10):
        for w in range(2 * n + 1):
            lo = max(0, w - n)
            for wv in range(lo, min(w, n) + 1):
                for vo in range(lo, min(wv, w - wv) + 1):
                    a = w - wv
                    expected = Fraction(
                        b(n, a) * b(a, vo) * b(n - a, wv - vo), b(n, wv) * b(n, w - 2 * vo)
                    )
                    assert plotkin_coefficient(n, w, wv, vo) == expected
