import json
import math
import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    literal_combine,
    min_positive_weight,
    random_full_rank_matrix,
    random_spectrum,
    stacked_identity_generator,
)
from plotkin_wef import (
    BinaryMatrix,
    RankDeficiencyWarning,
    WeightEnumerator,
    cli,
    combine,
    combine_single_weight,
    exact_wef_bruteforce,
    min_distance_combine,
    kernel,
    parse_poly,
    plotkin,
    shared_table,
)

EX1_U = parse_poly("1 + x^3", 3)  # [3,1,3] repetition code
EX1_V = parse_poly("1 + 3x^2", 3)  # [3,2,2] single parity check


def test_combine_golden():
    assert combine(EX1_U, EX1_V) == parse_poly("1 + 4x^3 + 3x^4", 6)


def test_combine_with_zero_v_code_copies_u():
    # v fixed to 0: the code is {(u, 0)}, spectrum of u padded to length 2n.
    one = parse_poly("1", 3)
    out = combine(EX1_U, one)
    assert out == parse_poly("1 + x^3", 6)


def test_combine_with_zero_u_code_doubles_v_weights():
    # u fixed to 0: words (v*perm, v) weigh exactly twice the v-weight.
    one = parse_poly("1", 3)
    assert combine(one, EX1_V) == parse_poly("1 + 3x^4", 6)


def test_combine_rational_instance():
    # Frozen from the exhaustive-permutation oracle over all 6 permutations of
    # {(u + v*perm, v)} with u-code generated by 100, v-code by 110; the same
    # value also falls out of literal_combine and mass conservation (mass 4).
    u = parse_poly("1 + x", 3)
    v = parse_poly("1 + x^2", 3)
    expected = WeightEnumerator(
        6, (1, 1, 0, Fraction(2, 3), 1, Fraction(1, 3), 0)
    )
    out = combine(u, v)
    assert out == expected
    assert out == literal_combine(u, v)
    assert sum(out.coeffs) == 4


def test_combine_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        combine(parse_poly("1", 2), parse_poly("1", 3))
    with pytest.raises(ValueError):
        combine_single_weight(parse_poly("1", 2), parse_poly("1", 3), 0)


def test_combine_single_weight_examples():
    assert combine_single_weight(EX1_U, EX1_V, 4) == 3
    assert combine_single_weight(EX1_U, EX1_V, 0) == 1
    assert combine_single_weight(EX1_U, EX1_V, 6) == 0


def test_combine_single_weight_range_errors():
    with pytest.raises(ValueError):
        combine_single_weight(EX1_U, EX1_V, 7)
    with pytest.raises(ValueError):
        combine_single_weight(EX1_U, EX1_V, -1)


def test_min_distance_combine():
    assert min_distance_combine(3, 2) == 3
    assert min_distance_combine(4, 4) == 4
    assert min_distance_combine(8, 2) == 4
    with pytest.raises(ValueError):
        min_distance_combine(0, 1)
    with pytest.raises(ValueError):
        min_distance_combine(1, 0)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mass_conservation(data):
    """The mass of combine(u, v) is the product of the masses, exactly."""
    n = data.draw(st.integers(1, 8))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    u = random_spectrum(rng, n)
    v = random_spectrum(rng, n)
    assert sum(combine(u, v).coeffs) == sum(u.coeffs) * sum(v.coeffs)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_single_weight_matches_full_combine(data):
    n = data.draw(st.integers(1, 6))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    u = random_spectrum(rng, n)
    v = random_spectrum(rng, n)
    full = combine(u, v)
    for w in range(2 * n + 1):
        assert combine_single_weight(u, v, w) == full.coeffs[w]


def test_zero_coefficient_prefix_below_combined_distance():
    """Combined spectra of linear codes vanish strictly below min(d_u, 2 d_v)."""
    rng = random.Random(2718)
    for _ in range(40):
        n = rng.randint(2, 6)
        G0 = random_full_rank_matrix(rng, n, rng.randint(1, min(3, n)))
        G1 = random_full_rank_matrix(rng, n, rng.randint(1, min(3, n)))
        bf0 = exact_wef_bruteforce(G0)
        bf1 = exact_wef_bruteforce(G1)
        d0 = min_positive_weight(bf0)
        d1 = min_positive_weight(bf1)
        out = combine(bf0, bf1)
        assert out.coeffs[0] == 1
        for w in range(1, min_distance_combine(d0, d1)):
            assert out.coeffs[w] == 0


def test_invariant_v_code_combine_is_exact():
    """When the v-code is fixed by every coordinate permutation, the ensemble
    average equals the identity-permutation code's spectrum."""
    n = 4
    invariant_v_codes = [
        BinaryMatrix.from_strings(["1111"]),  # repetition
        BinaryMatrix.from_strings(["1100", "0110", "0011"]),  # even-weight
        BinaryMatrix.from_strings(["1000", "0100", "0010", "0001"]),  # full space
        BinaryMatrix(4, ()),  # zero code
    ]
    rng = random.Random(5)
    for G1 in invariant_v_codes:
        for _ in range(5):
            G0 = random_full_rank_matrix(rng, n, rng.randint(1, 3))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RankDeficiencyWarning)
                lhs = combine(exact_wef_bruteforce(G0), exact_wef_bruteforce(G1))
                rhs = exact_wef_bruteforce(stacked_identity_generator(G0, G1))
            assert lhs == rhs


def test_combine_is_deterministic():
    rng = random.Random(31415)
    u = random_spectrum(rng, 12)
    v = random_spectrum(rng, 12)
    first = combine(u, v)
    second = combine(u, v)
    assert first == second
    assert [str(c) for c in first.coeffs] == [str(c) for c in second.coeffs]


# Combine plans: one per (n, k), with rows as far as the kernel reads them.


def fresh_inputs(n, k, v_nums):
    """All rows 0..n, the scale and v_hat, built from math.comb alone."""
    rows = [[math.comb(a, b) for b in range(a + 1)] for a in range(n + 1)]
    scale = math.lcm(*(math.comb(n, b) for b in range(k + 1)))
    return rows, scale, [num * (scale // math.comb(n, b)) for b, num in enumerate(v_nums)]


def windows(n, k):
    """The prefix and single-weight windows whose component weights are 0..k."""
    weights = [k] if k < n else [n, 2 * n, (3 * n + 1) // 2]
    return [(lo, w) for w in weights for lo in (0, w)]


@st.composite
def plan_cases(draw):
    n = draw(st.integers(1, 48))
    k = draw(st.sampled_from([0, n // 2, (n - 1) // 2, n]) | st.integers(0, n))
    return n, k, draw(st.integers(0, 2**32))


@settings(max_examples=150, deadline=None)
@given(plan_cases())
@example((1, 0, 1))
@example((1, 1, 2))
@example((8, 4, 3))
@example((9, 4, 4))
@example((40, 0, 5))
@example((40, 20, 6))
@example((41, 7, 7))
def test_plan_gives_the_kernel_what_fresh_rows_give(case):
    n, k, seed = case
    rng = random.Random(seed)
    u = [rng.choice([0, 1, rng.getrandbits(60)]) for _ in range(k + 1)]
    v = [rng.choice([0, 1, rng.getrandbits(60)]) for _ in range(n + 1)]
    if rng.random() < 0.5:
        v = [max(a, b) for a, b in zip(v, reversed(v))]  # palindromic: mirrored kernel
    v = v[: k + 1]
    rows, scale, mults = plotkin._plan(n, k)
    assert plotkin._plan(n, k) is plotkin._plan(n, k)
    fresh_rows, fresh_scale, fresh_v_hat = fresh_inputs(n, k, v)
    assert scale == fresh_scale
    v_hat = [num * mult for num, mult in zip(v, mults)]
    assert v_hat == fresh_v_hat
    for lo, hi in windows(n, k):
        got = kernel.combine_numerators(n, u, v_hat, rows, lo, hi)
        assert got == kernel.combine_numerators(n, u, fresh_v_hat, fresh_rows, lo, hi)


@pytest.mark.parametrize("n, k", [(1024, 64), (1023, 64), (512, 31), (300, 149)])
def test_truncated_plan_holds_about_k_squared_over_4_entries(n, k):
    rows, scale, mults = plotkin._plan.__wrapped__(n, k)
    # Entries 0..(k-j)//2 of row n-j for j = 1..k, and 0..k of row n.
    assert sorted(rows) == list(range(n - k, n + 1))
    assert [len(rows[n - j]) for j in range(1, k + 1)] == [(k - j) // 2 + 1 for j in range(1, k + 1)]
    assert rows[n] == [math.comb(n, b) for b in range(k + 1)]
    for a, row in rows.items():
        assert row == [math.comb(a, b) for b in range(len(row))]
    entries = sum(map(len, rows.values()))
    assert k * k / 4 < entries <= k * k / 4 + 2 * (k + 1)
    assert scale == math.lcm(*rows[n]) and mults == [scale // c for c in rows[n]]


def test_full_plan_copies_no_rows():
    rows, _, mults = plotkin._plan.__wrapped__(64, 40)
    assert rows is shared_table(64).rows
    assert len(mults) == 41


# combine_int reduces only its output: every caller hands it each input prefix
# 0..k over its least common denominator.  Outputs stay exact either way, so
# only the inputs show a caller that breaks the contract.


def spelled(rng, p, q):
    """p/q in a random exact spelling: unreduced, zero-padded or canonical."""
    g = rng.choice([1, 2, 3])
    if q == 1 and g == 1:
        return rng.choice([str(p), f"0{p}", p])
    return f"{p * g}/{q * g}"


def test_combine_int_receives_lowest_terms_prefixes(monkeypatch, tmp_path):
    seen = []
    original = plotkin.combine_int

    def recording(n, u, v, max_weight, min_weight=0):
        seen.append((min(max_weight, n), u, v))
        return original(n, u, v, max_weight, min_weight)

    monkeypatch.setattr(cli, "combine_int", recording)
    monkeypatch.setattr(plotkin, "combine_int", recording)
    rng = random.Random(2718)
    for n in (1, 4, 6, 9):
        paths = []
        for kind in ("int", "rat", "rat"):
            coeffs = {}
            for j in range(n + 1):
                p = rng.randint(0, 20)
                q = 1 if kind == "int" else rng.choice([1, 2, 3, 4, 6])
                if p or rng.random() < 0.3:
                    coeffs[str(j)] = spelled(rng, p, q)
            path = tmp_path / f"{n}-{len(paths)}.json"
            path.write_text(json.dumps({"n": n, "coeffs": coeffs}), encoding="utf-8")
            paths.append(str(path))
        for u_path in paths:
            for v_path in paths:
                for partial in ([], ["--partial", "0"], ["--partial", str(n // 2)],
                                ["--partial", str(n + 1)]):
                    assert cli.main(["combine", u_path, v_path, *partial]) == 0
        for _ in range(4):
            u, v = random_spectrum(rng, n), random_spectrum(rng, n)
            combine(u, v)
            for w in (0, n // 2, n, 2 * n):
                combine_single_weight(u, v, w)
    assert len(seen) > 200
    assert any(den > 1 for _, (den, _), _ in seen)
    for k, u, v in seen:
        for den, nums in (u, v):
            assert math.gcd(den, *nums[: k + 1]) == 1
