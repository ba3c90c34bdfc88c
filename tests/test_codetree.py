import math
import random
import time
from fractions import Fraction

import pytest

from helpers import min_positive_weight
from plotkin_wef import codetree
from plotkin_wef import (
    Branch,
    Leaf,
    WeightEnumerator,
    active_leaves,
    ensemble_wef,
    exact_wef_bruteforce,
    generator_matrix,
    parse_poly,
    rm_tree,
    tree_from_active_set,
    tree_from_json_dict,
    tree_to_json_dict,
)


def test_rm_tree_examples():
    t = rm_tree(1, 3)
    assert active_leaves(t) == (3, 5, 6, 7)
    assert t.dimension == 4
    assert rm_tree(0, 1) == Branch(Leaf(active=False), Leaf(active=True))
    assert active_leaves(rm_tree(3, 3)) == tuple(range(8))


def test_rm_tree_popcount_rule():
    for m in range(6):
        for r in range(-1, m + 2):
            expected = tuple(
                i for i in range(1 << m) if i.bit_count() >= m - r
            )
            assert active_leaves(rm_tree(r, m)) == expected


def test_rm_tree_dimension_is_binomial_sum():
    from plotkin_wef import binomial

    for m in range(9):
        for r in range(0, m + 1):
            assert rm_tree(r, m).dimension == sum(binomial(m, j) for j in range(r + 1))


def test_rm_tree_dimension_pascal_identity():
    for m in range(1, 9):
        for r in range(0, m + 1):
            assert (
                rm_tree(r, m).dimension
                == rm_tree(r - 1, m - 1).dimension + rm_tree(r, m - 1).dimension
            )


def test_rm_tree_rejects_negative_depth():
    with pytest.raises(ValueError):
        rm_tree(1, -1)


def test_tree_from_active_set():
    assert tree_from_active_set(3, {3, 5, 6, 7}) == rm_tree(1, 3)
    assert tree_from_active_set(0, set()) == Leaf(active=False)
    assert tree_from_active_set(1, {0, 1}) == rm_tree(1, 1)
    with pytest.raises(ValueError):
        tree_from_active_set(2, {4})
    with pytest.raises(ValueError):
        tree_from_active_set(2, {-1})


def test_branch_requires_equal_child_lengths():
    with pytest.raises(ValueError):
        Branch(Leaf(True), Branch(Leaf(True), Leaf(False)))


def test_ensemble_wef_examples():
    assert ensemble_wef(rm_tree(1, 3)) == parse_poly("1 + 14x^4 + x^8", 8)
    assert ensemble_wef(tree_from_active_set(4, set())) == parse_poly("1", 16)
    # Frozen from brute force over the 2^11 codewords of the depth-4 tree;
    # exact because the v-side codes along the recursion are fixed by every
    # coordinate permutation.
    assert ensemble_wef(rm_tree(2, 4)) == parse_poly(
        "1 + 140x^4 + 448x^6 + 870x^8 + 448x^10 + 140x^12 + x^16", 16
    )


def test_ensemble_wef_leaves():
    assert ensemble_wef(Leaf(False)) == WeightEnumerator(1, (1, 0))
    assert ensemble_wef(Leaf(True)) == WeightEnumerator(1, (1, 1))


def test_generator_matrix_examples():
    assert generator_matrix(Leaf(True)).to_strings() == ["1"]
    assert generator_matrix(rm_tree(0, 1)).to_strings() == ["11"]
    g = generator_matrix(rm_tree(1, 3))
    assert g.to_strings() == ["11110000", "11001100", "10101010", "11111111"]
    assert exact_wef_bruteforce(g) == parse_poly("1 + 14x^4 + x^8", 8)


def test_generator_matrix_rows_are_independent():
    rng = random.Random(404)
    for _ in range(20):
        m = rng.randint(0, 5)
        active = [i for i in range(1 << m) if rng.random() < 0.5]
        tree = tree_from_active_set(m, active)
        g = generator_matrix(tree)
        assert g.k == tree.dimension == len(active)
        assert g.rank() == g.k


def test_dimension_and_length_examples():
    t = rm_tree(1, 3)
    assert (t.dimension, t.length) == (4, 8)
    frozen = tree_from_active_set(3, set())
    assert (frozen.dimension, frozen.length) == (0, 8)
    t24 = rm_tree(2, 4)
    assert (t24.dimension, t24.length) == (11, 16)


def test_mass_is_two_to_dimension_on_random_trees():
    rng = random.Random(1618)
    for _ in range(25):
        m = rng.randint(0, 6)
        active = [i for i in range(1 << m) if rng.random() < 0.5]
        tree = tree_from_active_set(m, active)
        assert sum(ensemble_wef(tree).coeffs) == 2**tree.dimension


def test_rm_min_distance_is_power_of_two():
    for m in range(0, 5):
        for r in range(0, m + 1):
            got = min_positive_weight(ensemble_wef(rm_tree(r, m)))
            assert got == 2 ** (m - r)


def test_ensemble_equals_bruteforce_for_invariant_v_spines():
    cases = [(r, m) for m in range(0, 5) for r in (0, m - 1, m) if 0 <= r <= m]
    cases += [(1, 3), (1, 4), (2, 4)]
    for r, m in sorted(set(cases)):
        tree = rm_tree(r, m)
        assert ensemble_wef(tree) == exact_wef_bruteforce(generator_matrix(tree)), (r, m)


def test_active_set_tree_matches_rm_tree_spectrum():
    for r, m in [(0, 2), (1, 3), (2, 4)]:
        rm = rm_tree(r, m)
        rebuilt = tree_from_active_set(m, active_leaves(rm))
        assert rebuilt == rm
        assert ensemble_wef(rebuilt) == ensemble_wef(rm)


def test_tree_json_forms():
    assert tree_from_json_dict({"rm": {"r": 1, "m": 3}}) == rm_tree(1, 3)
    assert tree_from_json_dict({"m": 3, "active": [3, 5, 6, 7]}) == rm_tree(1, 3)
    assert tree_to_json_dict(rm_tree(1, 3)) == {"m": 3, "active": [3, 5, 6, 7]}
    for bad in [
        [],
        {"rm": {"r": 1}},
        {"m": 3},
        {"active": []},
        {"m": "3", "active": []},
        {"rm": {"r": 1.5, "m": 3}},
    ]:
        with pytest.raises(ValueError):
            tree_from_json_dict(bad)


def _subtrees(tree):
    """Every subtree occurrence, with repeats, as (leaf range, node)."""
    out = []

    def walk(t, base):
        out.append(((base, t.length), t))
        if isinstance(t, Branch):
            walk(t.left, base)
            walk(t.right, base + t.left.length)

    walk(tree, 0)
    return out


def test_tree_from_active_set_shares_equal_subtrees():
    rng = random.Random(99)
    for _ in range(20):
        m = rng.randint(0, 7)
        density = rng.random()
        tree = tree_from_active_set(m, [i for i in range(1 << m) if rng.random() < density])
        by_value = {}
        for _, node in _subtrees(tree):
            key = (node.length, active_leaves(node))
            assert by_value.setdefault(key, node) is node


def test_sparse_active_set_builds_few_nodes():
    """A depth-40 tree with three active leaves: every range without one is
    the shared all-frozen subtree of its depth, so the build and the
    active-leaf walk touch O(|active| * m) nodes, not 2^40."""
    m = 40
    active = (0, 5, (1 << m) - 1)
    tree = tree_from_active_set(m, reversed(active))
    assert (tree.length, tree.dimension) == (1 << m, 3)
    assert active_leaves(tree) == active
    distinct = {}
    stack = [tree]
    while stack:
        node = stack.pop()
        if id(node) not in distinct:
            distinct[id(node)] = node
            if isinstance(node, Branch):
                stack += [node.left, node.right]
    assert len(distinct) <= (len(active) + 1) * (m + 1)
    assert tree.left.right is tree.right.left
    assert (tree.right.left.length, tree.right.left.dimension) == (1 << (m - 2), 0)
    assert tree_from_active_set(3, range(8)) == rm_tree(3, 3)


def test_separately_built_trees_compare_and_hash_equal():
    rng = random.Random(5)
    for _ in range(10):
        m = rng.randint(0, 6)
        active = [i for i in range(1 << m) if rng.random() < 0.5]
        a = tree_from_active_set(m, active)
        b = tree_from_active_set(m, list(reversed(active)))
        assert a == b and hash(a) == hash(b)
        assert {a: m}[b] == m
    by_hand = Branch(
        Branch(Leaf(False), Leaf(False)), Branch(Leaf(False), Leaf(True))
    )
    assert by_hand is not rm_tree(0, 2)
    assert by_hand == rm_tree(0, 2) and hash(by_hand) == hash(rm_tree(0, 2))
    assert by_hand != rm_tree(1, 2)


def test_separately_built_deep_trees_compare_in_distinct_nodes():
    # Each tree shares its equal subtrees but none with the other, so a
    # comparison that walks every root-to-leaf path takes 2^24 steps.
    a, b = tree_from_active_set(24, []), tree_from_active_set(24, [])
    assert a is not b
    started = time.perf_counter()
    assert a == b
    assert time.perf_counter() - started < 0.5
    assert hash(a) == hash(b)
    moved_a = tree_from_active_set(24, [5, 1 << 23])
    moved_b = tree_from_active_set(24, [5, (1 << 23) + 1])
    assert moved_a.dimension == moved_b.dimension
    assert moved_a != moved_b and not moved_a == moved_b
    assert tree_from_active_set(24, [5, 1 << 23]) == moved_a
    # Equal hashes do not make equal trees: hash(-1) == hash(-2) in CPython.
    assert Branch(Leaf(-1), Leaf(False)) != Branch(Leaf(-2), Leaf(False))


def test_integer_recursion_keeps_least_common_denominators(monkeypatch):
    # Outputs stay right without the gcd reduction, but the denominators,
    # and with them every integer the kernel sees, grow at each level.
    seen = []
    original = codetree.combine_int

    def recording(*args):
        out = original(*args)
        seen.append(out)
        return out

    monkeypatch.setattr(codetree, "combine_int", recording)
    rng = random.Random(31)
    trees = [rm_tree(r, m) for m in range(1, 8) for r in range(m)]
    for _ in range(10):
        m = rng.randint(1, 7)
        trees.append(tree_from_active_set(m, [i for i in range(1 << m) if rng.random() < 0.6]))
    for tree in trees:
        full = ensemble_wef(tree).coeffs
        for max_weight in (2, tree.length // 3, tree.length):
            den, nums = codetree.ensemble_wef_int(tree, max_weight)
            assert tuple(Fraction(num, den) for num in nums) == full[: max_weight + 1]
    assert len(seen) > 500
    assert any(den > 1 for den, _ in seen)
    for den, nums in seen:
        assert den == math.lcm(*(Fraction(num, den).denominator for num in nums))
