"""MacWilliams duality: a whole-spectrum oracle at every length.

The dual of {(u + v*perm, v)} is, with its halves swapped, the same
construction with the dual of C_v supplying u, the dual of C_u supplying v
and the interleaver perm^-1, which is uniform too.  The transform is linear,
so it commutes with the ensemble average:
MacWilliams(combine(U, V)) == combine(MacWilliams(V), MacWilliams(U)), and
over a tree, MacWilliams(ensemble_wef_int(T)) == ensemble_wef_int(dual_tree(T)).
All of these compare integer pairs ``(den, nums)``, each in lowest terms.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plotkin_wef import (
    Leaf,
    active_leaves,
    combine_int,
    common_denominator,
    dual_tree,
    ensemble_wef_int,
    fractions_over,
    macwilliams,
    rm_tree,
    tree_from_active_set,
)

fractions = st.fractions(min_value=0, max_value=50, max_denominator=12)
signed_fractions = st.fractions(min_value=-50, max_value=50, max_denominator=12)


@st.composite
def rational_pairs(draw):
    n = draw(st.integers(1, 9))
    spectra = st.lists(fractions, min_size=n + 1, max_size=n + 1).filter(any)
    return n, common_denominator(draw(spectra)), common_denominator(draw(spectra))


def seeded_pair(n, palindromic, seed):
    """Dense rational length-n spectra u and v: both palindromic, so that the
    combine of u with v is mirrored and that of their transforms is not, or
    both skewed, so that neither is."""
    rng = random.Random(seed)
    spectra = []
    for _ in range(2):
        coeffs = [Fraction(rng.randint(1, 1000), rng.randint(1, 1000)) for _ in range(n + 1)]
        if palindromic:
            coeffs = [max(c, coeffs[n - w]) for w, c in enumerate(coeffs)]
        spectra.append(common_denominator(coeffs))
    return n, *spectra


def transform_by_definition(coeffs) -> tuple[Fraction, ...]:
    """B_j, the coefficient of y^j in sum_w A_w (1 - y)^w (1 + y)^(N - w)
    over sum_w A_w, expanded term by term with binomial coefficients."""
    N = len(coeffs) - 1
    mass = sum(coeffs)
    return tuple(
        sum(
            a * (-1) ** i * math.comb(w, i) * math.comb(N - w, j - i)
            for w, a in enumerate(coeffs)
            for i in range(j + 1)
        )
        / mass
        for j in range(N + 1)
    )


def test_known_dual_pairs():
    hamming = (1, [1, 0, 0, 7, 7, 0, 0, 1])
    simplex = (1, [1, 0, 0, 0, 7, 0, 0, 0])
    assert macwilliams(hamming) == simplex
    assert macwilliams(simplex) == hamming
    assert macwilliams((1, [1, 3, 3, 1])) == (1, [1, 0, 0, 0])
    assert macwilliams((3, [1])) == (1, [1])
    # The input's denominator cancels, and the output is in lowest terms
    # with a positive denominator whatever the sign of the mass.
    assert macwilliams((6, [2, 6, 6, 2])) == (1, [1, 0, 0, 0])
    assert macwilliams((1, [-1, 0])) == (1, [1, 1])
    assert macwilliams((1, [2, 1])) == (3, [3, 1])
    assert macwilliams((5, [-2, -1])) == (3, [3, 1])
    assert macwilliams((1, [1, -3])) == (1, [1, -2])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(signed_fractions, min_size=1, max_size=10).filter(lambda c: sum(c) != 0),
    st.integers(1, 6),
)
def test_transform_matches_its_definition(coeffs, k):
    den, nums = common_denominator(coeffs)
    out_den, out_nums = macwilliams((k * den, [k * num for num in nums]))
    assert out_den > 0
    assert math.gcd(out_den, *out_nums) == 1
    assert fractions_over(out_den, out_nums) == transform_by_definition(coeffs)


def test_zero_mass_is_rejected():
    with pytest.raises(ValueError):
        macwilliams((1, [0, 0, 0]))
    with pytest.raises(ValueError):
        macwilliams((2, [1, 0, -1]))


@settings(max_examples=60, deadline=None)
@given(rational_pairs())
@example(seeded_pair(16, True, 16))
@example(seeded_pair(16, False, 17))
@example(seeded_pair(32, True, 32))
@example(seeded_pair(32, False, 33))
@example(seeded_pair(64, True, 64))
@example(seeded_pair(64, False, 65))
def test_transform_commutes_with_combine(pair):
    # The transform of a non-code spectrum may have negative entries, which
    # combine_int takes as they are.  Hypothesis draws n <= 9 and seldom a
    # palindrome; the seeded pairs set both the mirrored and the unmirrored
    # kernel windows against the oracle at n up to 64.
    n, u, v = pair
    assert macwilliams(combine_int(n, u, v, 2 * n)) == combine_int(
        n, macwilliams(v), macwilliams(u), 2 * n
    )


def test_transform_twice_divides_by_a0():
    # Applied twice, the unnormalised transform multiplies by 2^N, and the
    # two masses multiply to 2^N A_0.
    rng = random.Random(7)
    for _ in range(20):
        coeffs = [Fraction(rng.randint(0, 30), rng.randint(1, 9)) for _ in range(rng.randint(1, 12))]
        coeffs[0] += Fraction(1, rng.randint(1, 5))
        twice = macwilliams(macwilliams(common_denominator(coeffs)))
        assert twice == common_denominator([c / coeffs[0] for c in coeffs])


def test_dual_tree_leaf_rule():
    rng = random.Random(11)
    for _ in range(20):
        m = rng.randint(0, 5)
        active = {i for i in range(1 << m) if rng.random() < 0.5}
        dual = dual_tree(tree_from_active_set(m, active))
        frozen_mirrored = {(1 << m) - 1 - i for i in range(1 << m) if i not in active}
        assert set(active_leaves(dual)) == frozen_mirrored
        assert dual_tree(dual) == tree_from_active_set(m, active)
    assert dual_tree(Leaf(True)) == Leaf(False)


def test_random_trees_match_their_dual_trees():
    rng = random.Random(2718)
    for _ in range(20):
        m = rng.randint(0, 5)
        density = rng.random()
        tree = tree_from_active_set(m, [i for i in range(1 << m) if rng.random() < density])
        spectrum = ensemble_wef_int(tree, tree.length)
        assert macwilliams(spectrum) == ensemble_wef_int(dual_tree(tree), tree.length)


@pytest.mark.parametrize("m", range(11))
def test_reed_muller_duals(m):
    spectra = {r: ensemble_wef_int(rm_tree(r, m), 1 << m) for r in range(-1, m + 1)}
    for r in range(-1, m + 1):
        assert dual_tree(rm_tree(r, m)) == rm_tree(m - r - 1, m)
        assert macwilliams(spectra[r]) == spectra[m - r - 1], (r, m)



@pytest.mark.parametrize("m", range(1, 9))
def test_random_self_dual_trees_are_their_own_transform(m):
    # One active leaf of each complementary pair (i, n-1-i), leaf n-1 among
    # them, makes a tree its own dual: a whole-spectrum check on unshared
    # trees with skewed children, which rm trees never have.  The spectrum is
    # its own MacWilliams transform and, the dual code being even, has no odd
    # weight.
    n = 1 << m
    for seed in range(8):
        rng = random.Random(100 * m + seed)
        tree = tree_from_active_set(m, [n - 1] + [rng.choice((i, n - 1 - i)) for i in range(1, n // 2)])
        assert dual_tree(tree) == tree
        den, nums = ensemble_wef_int(tree, n)
        assert macwilliams((den, nums)) == (den, nums), seed
        assert not any(nums[1::2]), seed
