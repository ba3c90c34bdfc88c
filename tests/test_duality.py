"""MacWilliams duality: a whole-spectrum oracle at every length.

The dual of {(u + v*perm, v)} is, with its halves swapped, the same
construction with the dual of C_v supplying u, the dual of C_u supplying v
and the interleaver perm^-1, which is uniform too.  The transform is linear,
so it commutes with the ensemble average:
MacWilliams(combine(U, V)) == combine(MacWilliams(V), MacWilliams(U)), and
over a tree, MacWilliams(ensemble_wef(T)) == ensemble_wef(dual_tree(T)).
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plotkin_wef import (
    Leaf,
    active_leaves,
    combine_int,
    common_denominator,
    dual_tree,
    ensemble_wef,
    fractions_over,
    macwilliams,
    parse_poly,
    rm_tree,
    tree_from_active_set,
)

fractions = st.fractions(min_value=0, max_value=50, max_denominator=12)


@st.composite
def rational_pairs(draw):
    n = draw(st.integers(1, 9))
    spectra = st.lists(fractions, min_size=n + 1, max_size=n + 1).filter(any)
    return n, tuple(draw(spectra)), tuple(draw(spectra))


def test_known_dual_pairs():
    hamming = parse_poly("1 + 7x^3 + 7x^4 + x^7", 7).coeffs
    simplex = parse_poly("1 + 7x^4", 7).coeffs
    assert macwilliams(hamming) == simplex
    assert macwilliams(simplex) == hamming
    assert macwilliams((1, 3, 3, 1)) == (1, 0, 0, 0)
    assert macwilliams((Fraction(1, 3),)) == (1,)


def test_zero_mass_is_rejected():
    with pytest.raises(ValueError):
        macwilliams((0, 0, 0))


@settings(max_examples=60, deadline=None)
@given(rational_pairs())
def test_transform_commutes_with_combine(pair):
    # Raw coefficient tuples: the transform of a non-code spectrum may have
    # negative entries, which a WeightEnumerator rejects.
    n, u, v = pair

    def combined(u, v):
        u_int, v_int = common_denominator(u), common_denominator(v)
        return fractions_over(*combine_int(n, u_int, v_int, 2 * n))

    assert macwilliams(combined(u, v)) == combined(macwilliams(v), macwilliams(u))


def test_transform_twice_divides_by_a0():
    # Applied twice, the unnormalised transform multiplies by 2^N, and the
    # two masses multiply to 2^N A_0.
    rng = random.Random(7)
    for _ in range(20):
        coeffs = [Fraction(rng.randint(0, 30), rng.randint(1, 9)) for _ in range(rng.randint(1, 12))]
        coeffs[0] += Fraction(1, rng.randint(1, 5))
        assert macwilliams(macwilliams(coeffs)) == tuple(c / coeffs[0] for c in coeffs)


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
        assert macwilliams(ensemble_wef(tree).coeffs) == ensemble_wef(dual_tree(tree)).coeffs


@pytest.mark.parametrize("m", range(9))
def test_reed_muller_duals(m):
    spectra = {r: ensemble_wef(rm_tree(r, m)).coeffs for r in range(-1, m + 1)}
    for r in range(-1, m + 1):
        assert dual_tree(rm_tree(r, m)) == rm_tree(m - r - 1, m)
        assert macwilliams(spectra[r]) == spectra[m - r - 1], (r, m)
