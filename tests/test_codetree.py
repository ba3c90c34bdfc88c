import gc
import math
import random
import sys
import time
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import min_positive_weight
from plotkin_wef import codetree
from plotkin_wef import (
    Branch,
    Leaf,
    WeightEnumerator,
    active_leaves,
    dual_tree,
    ensemble_wef,
    exact_wef_bruteforce,
    generator_matrix,
    rm_tree,
    tree_from_active_set,
    tree_from_json_dict,
    tree_to_json_dict,
)

# An assertion on a tree deeper than 16 asserts a local that holds no tree:
# pytest renders every object that a failing assert expression names, and a
# tree's repr writes all 2^m leaves, so the report of a failure at depth 24 or
# 40 would take minutes or never finish.


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
    for m in range(9):
        for r in range(0, m + 1):
            assert rm_tree(r, m).dimension == sum(math.comb(m, j) for j in range(r + 1))


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
    assert ensemble_wef(rm_tree(1, 3)) == WeightEnumerator(8, (1, 0, 0, 0, 14, 0, 0, 0, 1))
    assert ensemble_wef(tree_from_active_set(4, set())) == WeightEnumerator(16, (1,) + (0,) * 16)
    # Frozen from brute force over the 2^11 codewords of the depth-4 tree;
    # exact because the v-side codes along the recursion are fixed by every
    # coordinate permutation.
    assert ensemble_wef(rm_tree(2, 4)) == WeightEnumerator(
        16, (1, 0, 0, 0, 140, 0, 448, 0, 870, 0, 448, 0, 140, 0, 0, 0, 1)
    )


def test_ensemble_wef_leaves():
    assert ensemble_wef(Leaf(False)) == WeightEnumerator(1, (1, 0))
    assert ensemble_wef(Leaf(True)) == WeightEnumerator(1, (1, 1))


def test_generator_matrix_examples():
    assert generator_matrix(Leaf(True)).to_strings() == ["1"]
    assert generator_matrix(rm_tree(0, 1)).to_strings() == ["11"]
    g = generator_matrix(rm_tree(1, 3))
    assert g.to_strings() == ["11110000", "11001100", "10101010", "11111111"]
    assert exact_wef_bruteforce(g) == WeightEnumerator(8, (1, 0, 0, 0, 14, 0, 0, 0, 1))


def test_generator_matrix_rows_are_independent():
    rng = random.Random(404)
    for _ in range(20):
        m = rng.randint(0, 5)
        active = [i for i in range(1 << m) if rng.random() < 0.5]
        tree = tree_from_active_set(m, active)
        g = generator_matrix(tree)
        assert g.k == tree.dimension == len(active)
        assert g.rank() == g.k


def _rows_by_recursion(tree):
    """The generator rows by the tree recursion: rows from the left subtree
    extend as (g | 0), rows from the right subtree as (g | g)."""
    if isinstance(tree, Leaf):
        return [1] if tree.active else []
    half = tree.left.length
    return _rows_by_recursion(tree.left) + [
        g | (g << half) for g in _rows_by_recursion(tree.right)
    ]


def test_generator_rows_match_the_tree_recursion():
    rng = random.Random(271)
    trees = [rm_tree(r, m) for m in range(7) for r in range(-1, m + 2)]
    for _ in range(300):
        m = rng.randint(0, 8)
        density = rng.choice((0.0, 0.05, 0.5, 0.95, 1.0, rng.random()))
        trees.append(tree_from_active_set(m, [i for i in range(1 << m) if rng.random() < density]))
    assert any(tree.dimension == 0 for tree in trees)
    for tree in trees:
        assert generator_matrix(tree).rows == tuple(_rows_by_recursion(tree)), tree_to_json_dict(tree)


def test_sparse_deep_generator_visits_no_frozen_subtree():
    # A walk of this length-2^24 tree visits about 2^25 nodes, nearly all of
    # them frozen; the fold visits each distinct subtree once, and the frozen
    # ones are shared, so it never walks a frozen range position by position.
    tree = tree_from_active_set(24, [0, 5, (1 << 24) - 1])
    started = time.perf_counter()
    rows = generator_matrix(tree).rows
    assert time.perf_counter() - started < 0.5
    assert rows == (1, 0b110011, (1 << (1 << 24)) - 1)


def _leaf_at(tree, i):
    """Leaf i of ``tree``, found by the bits of i from the root split down."""
    for d in range(tree.length.bit_length() - 2, -1, -1):
        tree = tree.right if i >> d & 1 else tree.left
    return tree


def test_active_leaves_are_the_sorted_active_set():
    rng = random.Random(1729)
    for _ in range(200):
        m = rng.randint(0, 10)
        density = rng.choice((0.0, 0.01, 0.3, 0.5, 0.9, 1.0, rng.random()))
        active = [i for i in range(1 << m) if rng.random() < density]
        # Duplicates and a reversed order name the same set.
        listed = active[::-1] + rng.sample(active, len(active) // 3)
        assert active_leaves(tree_from_active_set(m, listed)) == tuple(active), (m, density)


def test_equal_halves_built_apart_share_one_memo_entry():
    # dual_tree(dual_tree(t)) equals t but is another object: the fold finds
    # its value by equality and must still shift it to the right half.
    rng = random.Random(2718)
    for _ in range(60):
        m = rng.randint(0, 7)
        density = rng.choice((0.0, 0.2, 0.5, 0.8, 1.0))
        t = tree_from_active_set(m, [i for i in range(1 << m) if rng.random() < density])
        twin = dual_tree(dual_tree(t))
        assert twin == t and twin is not t
        tree = Branch(t, twin)
        positions = tuple(i for i in range(tree.length) if _leaf_at(tree, i).active)
        assert active_leaves(tree) == positions
        rows = tuple(
            sum(1 << p for p in range(tree.length) if p & i == p) for i in positions
        )
        assert generator_matrix(tree).rows == rows == tuple(_rows_by_recursion(tree))


class _Box:
    """A fold value that a weak reference can watch."""


def test_fold_keeps_only_the_root_value_alive():
    # With gc disabled, a value that lived on past the call would have to be
    # held by the fold's memo or by a cycle through it; only the root may be.
    made = []

    def box(*_):
        value = _Box()
        made.append(weakref.ref(value))
        return value

    tree = rm_tree(3, 6)
    enabled = gc.isenabled()
    gc.disable()
    try:
        root = codetree._fold(tree, box, box)
        alive = [value for value in (ref() for ref in made) if value is not None]
    finally:
        if enabled:
            gc.enable()
    assert len(made) == len(_distinct_nodes(tree))
    assert len(alive) == 1 and alive[0] is root


_M, _ACTIVE = 10, random.Random(32).sample(range(1 << 10), 300)
_TREE = tree_from_active_set(_M, _ACTIVE)
_CALLS = {
    "tree_from_active_set": (_M, _ACTIVE),
    "tree_from_json_dict": ({"m": _M, "active": _ACTIVE},),
    "rm_tree": (3, _M),
    "ensemble_wef_int": (_TREE, 8),
    "active_leaves": (_TREE,),
    "dual_tree": (_TREE,),
    "generator_matrix": (_TREE,),
    "tree_to_json_dict": (_TREE,),
}


@pytest.mark.parametrize("name", list(_CALLS))
def test_calls_leave_no_cyclic_garbage(name):
    # Per-call state is passed down the recursions, never captured by a
    # closure that refers to itself, so everything a call made but did not
    # return is freed on return, and the cyclic collector finds nothing.
    call, args = getattr(codetree, name), _CALLS[name]
    call(*args)  # loads what the first call imports
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        kept = call(*args)
        found = gc.collect()
    finally:
        if enabled:
            gc.enable()
    assert found == 0


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
    shape, leaves = (tree.length, tree.dimension), active_leaves(tree)
    assert shape == (1 << m, 3)
    assert leaves == active
    distinct = len(_distinct_nodes(tree))
    assert distinct <= (len(active) + 1) * (m + 1)
    shared = tree.left.right is tree.right.left
    assert shared
    frozen_shape = (tree.right.left.length, tree.right.left.dimension)
    assert frozen_shape == (1 << (m - 2), 0)
    assert tree_from_active_set(3, range(8)) == rm_tree(3, 3)


def _distinct_nodes(tree):
    seen = {}
    stack = [tree]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            if isinstance(node, Branch):
                stack += [node.left, node.right]
    return seen.values()


def test_uniform_subtrees_come_from_the_rm_cache():
    # Ranges with no active leaf, or with only active ones, are taken from
    # rm_tree, so separately built trees share them with it.
    for m in range(41):
        cached = tree_from_active_set(m, []) is rm_tree(-1, m)
        assert cached, m
    assert tree_from_active_set(3, range(8)) is rm_tree(3, 3)
    assert tree_from_active_set(0, [0]) is rm_tree(0, 0)
    sparse = tree_from_active_set(40, [0, 5, (1 << 40) - 1])
    cached = sparse.left.right is rm_tree(-1, 38)
    assert cached
    assert tree_from_active_set(4, [0, 1, 2, 3, 9]).left.left is rm_tree(2, 2)


def test_sparse_deep_dual_flips_each_distinct_node_once():
    """Without its memo the dual of a depth-40 tree would visit about 2^40
    nodes; with it, one per distinct node of the input."""
    m, active = 40, (0, 5, (1 << 40) - 1)
    tree = tree_from_active_set(m, active)
    started = time.perf_counter()
    dual = dual_tree(tree)
    assert time.perf_counter() - started < 0.5
    distinct = len(_distinct_nodes(dual))
    assert distinct <= (len(active) + 1) * (m + 1)
    shape = (dual.length, dual.dimension)
    assert shape == (1 << m, (1 << m) - 3)
    round_trip = dual_tree(dual) == tree
    assert round_trip


def test_ensemble_wef_int_combines_each_distinct_branch_once(monkeypatch):
    calls = []
    original = codetree.combine_int

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(codetree, "combine_int", counting)
    trees = [rm_tree(r, m) for m in range(9) for r in range(-1, m + 1)]
    rng = random.Random(28)
    for density in (0.2, 0.5, 0.8):
        for m in range(9):
            trees.append(tree_from_active_set(m, [i for i in range(1 << m) if rng.random() < density]))
    for tree in trees:
        # Distinct by value: a set of nodes dedups equal subtrees however built.
        branches = {node for node in _distinct_nodes(tree) if isinstance(node, Branch)}
        for max_weight in (2, tree.length):
            calls.clear()
            codetree.ensemble_wef_int(tree, max_weight)
            assert len(calls) == len(branches), (tree, max_weight)


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
    # Each dual shares its equal subtrees but none with the other, so a
    # comparison that walks every root-to-leaf path takes 2^24 steps.
    # (tree_from_active_set(24, []) is the one cached rm_tree(-1, 24).)
    a, b = dual_tree(rm_tree(24, 24)), dual_tree(rm_tree(24, 24))
    separate = a is not b
    assert separate
    started = time.perf_counter()
    equal = a == b
    assert equal
    assert time.perf_counter() - started < 0.5
    equal_hashes = hash(a) == hash(b)
    assert equal_hashes
    moved_a = tree_from_active_set(24, [5, 1 << 23])
    moved_b = tree_from_active_set(24, [5, (1 << 23) + 1])
    equal_dimensions = moved_a.dimension == moved_b.dimension
    assert equal_dimensions
    unequal = moved_a != moved_b and not moved_a == moved_b
    assert unequal
    rebuilt_equal = tree_from_active_set(24, [5, 1 << 23]) == moved_a
    assert rebuilt_equal
    # Equal hashes do not make equal trees: hash(-1) == hash(-2) in CPython.
    assert hash(Leaf(-1)) == hash(Leaf(-2)) and Leaf(-1) != Leaf(-2)
    assert Branch(Leaf(-1), Leaf(False)) != Branch(Leaf(-2), Leaf(False))


def _rebuilt(tree):
    """The same tree from fresh Leaf and Branch objects, sharing nothing."""
    if isinstance(tree, Leaf):
        return Leaf(tree.active)
    return Branch(_rebuilt(tree.left), _rebuilt(tree.right))


def _leaf_bits(tree):
    """The leaves' active flags left to right, by a walk of every path."""
    if isinstance(tree, Leaf):
        return (tree.active,)
    return _leaf_bits(tree.left) + _leaf_bits(tree.right)


@st.composite
def _active_set_pairs(draw):
    # Two active sets of depth <= 8 that often agree, or differ in a leaf or
    # two or in depth; half are complemented, so dense sets with uniform
    # all-active subtrees come up as often as sparse ones.
    m = draw(st.integers(0, 8))
    active = draw(st.sets(st.integers(0, (1 << m) - 1)))
    if draw(st.booleans()):
        active = set(range(1 << m)) - active
    other_m = draw(st.sampled_from([m, m, m, max(m - 1, 0), min(m + 1, 8)]))
    toggled = draw(st.sets(st.integers(0, (1 << other_m) - 1), max_size=2))
    other = {i for i in active if i < 1 << other_m} ^ toggled
    return (m, active), (other_m, other)


@settings(deadline=None)
@given(_active_set_pairs())
def test_trees_are_equal_iff_their_lengths_and_active_leaves_are(pair):
    # Each tree as the builder shares it and as rebuilt node by node, so an
    # equality that leaned on shared objects would fail between the two.
    trees = []
    for m, active in pair:
        meaning = (1 << m, tuple(sorted(active)))
        shared = tree_from_active_set(m, active)
        trees += [(shared, meaning), (_rebuilt(shared), meaning)]
    for a, meaning_a in trees:
        for b, meaning_b in trees:
            equal = meaning_a == meaning_b
            assert (a == b) is equal and (a != b) is not equal
            if equal:
                assert hash(a) == hash(b)


def test_hand_built_equal_children_are_combined_once(monkeypatch):
    # The fold's memo finds the right half by equality with the left one, and
    # that equality is itself two folds, run inside this one.
    calls = []
    original = codetree.combine_int

    def counting(*args):
        calls.append(args)
        return original(*args)

    half = tree_from_active_set(5, [3, 5, 6, 7, 11, 13, 14, 15, 31])
    tree = Branch(half, _rebuilt(half))
    branches = [node for node in _distinct_nodes(tree) if isinstance(node, Branch)]
    values = {_leaf_bits(node) for node in branches}
    assert len(values) < len(branches)
    expected = {w: codetree.ensemble_wef_int(Branch(half, half), w) for w in (2, tree.length)}
    monkeypatch.setattr(codetree, "combine_int", counting)
    for max_weight, spectrum in expected.items():
        calls.clear()
        assert codetree.ensemble_wef_int(tree, max_weight) == spectrum
        assert len(calls) == len(values)


def test_separately_rebuilt_trees_compare_and_fold_in_their_nodes():
    # Two copies of RM(7, 14) that share no node: 2^15 objects each, every
    # repeated subtree a separate one.  Equality walks each object once, and
    # a fold's memo finds each repeated subtree by one such equality, so
    # neither may start comparisons inside comparisons, one more per level.
    a, b = _rebuilt(rm_tree(7, 14)), _rebuilt(rm_tree(7, 14))
    started = time.perf_counter()
    equal = a == b
    assert equal
    assert time.perf_counter() - started < 0.5
    started = time.perf_counter()
    spectrum = codetree.ensemble_wef_int(a, 4)
    assert time.perf_counter() - started < 0.5
    expected = codetree.ensemble_wef_int(rm_tree(7, 14), 4)
    assert spectrum == expected


def test_equality_recurses_once_per_level():
    # Equality is a fold, so a hand-built tree deeper than the recursion
    # limit raises RecursionError in == as it does in every other fold.
    shallow, deep = [], []
    for trees, depth in ((shallow, 200), (deep, sys.getrecursionlimit())):
        for _ in range(2):
            node = Leaf(False)
            for _ in range(depth):
                node = Branch(node, node)
            trees.append(node)
    equal = shallow[0] == shallow[1]
    assert equal
    with pytest.raises(RecursionError):
        deep[0] == deep[1]
    with pytest.raises(RecursionError):
        codetree.ensemble_wef_int(deep[0], 1)


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
