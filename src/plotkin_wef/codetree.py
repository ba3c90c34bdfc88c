"""Binary construction trees with frozen and active length-1 leaves.

A depth-m tree describes a length-2^m code assembled bottom-up: each internal
node forms {(u + v, v)} from its left child's code (supplying u) and its right
child's code (supplying v).  A frozen leaf is a coordinate pinned to 0, an
active leaf carries one free bit.

Leaf indexing convention: leaves are numbered 0..2^m-1 left to right, i.e. the
bit of the index at depth d (most significant bit = the root split) is 0 on
the left/u side and 1 on the right/v side.  In-order traversal therefore
visits indices in increasing order.

Trees are immutable values whose identity is cheap: every node computes its
hash, length and dimension once, at construction, from its children's, and
``rm_tree`` and ``tree_from_active_set`` build each distinct subtree once
and share it.  The uniform subtrees, all leaves frozen or all active, come
from the one ``rm_tree`` cache, so they are shared across calls too.

One memoised fold walks a tree leaves-to-root and evaluates each distinct
subtree once per call, finding a shared subtree by identity, so each of its
values costs one evaluation per distinct subtree.  It computes all four
per-tree values: ``ensemble_wef_int``, which carries every spectrum as
``(den, nums)`` (see plotkin.py) and of which ``ensemble_wef`` is the
Fraction view, ``dual_tree``, ``active_leaves`` and the rows of
``generator_matrix``; and it is equality's one walk: two trees compare by
numbering each distinct subtree in a table that their two folds share, with
a memo keyed by identity, in O(distinct nodes) on the trees built here.

No function here closes over itself: the fold and the builder are
module-level recursions that take their per-call state (the memo, the
sorted indices, the intern table) as arguments, so no call leaves a
reference cycle behind and only its returned value outlives it.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache

from .enumerator import Value, WeightEnumerator, fractions_over, is_int
from .plotkin import combine_int


class CodeTree(Value):
    """Base class for Leaf and Branch; trees are immutable values.

    Every node holds its length, its dimension and its hash in slots, set
    once by its constructor (a branch's from its children's), so none of
    them walks the subtree.  Equality, here for both kinds, numbers both
    trees by the fold.
    """

    __slots__ = ("length", "dimension", "_hash")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other):
        """Structural equality by numbering: one fold per tree, over a table
        that both folds share, numbers a leaf by ``(active,)`` and a branch
        by its children's numbers, so two trees are equal iff their roots
        get one number.  The folds' memo, shared too, is keyed by identity,
        so no comparison runs inside them and a subtree the two trees share
        is numbered once: O(distinct node objects).  Like every fold it
        recurses once per level, within Python's recursion limit."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self._hash != other._hash:
            return False
        memo, ids = {}, {}
        number = (
            lambda t: ids.setdefault((t.active,), len(ids)),
            lambda t, left, right: ids.setdefault((left, right), len(ids)),
        )
        return _fold_node(self, memo, *number, id) == _fold_node(other, memo, *number, id)


class Leaf(CodeTree):
    """One coordinate: frozen (pinned to 0) or active (one free bit); its
    hash is that of the tuple ``(active,)``."""

    __slots__ = _fields = ("active",)

    def __init__(self, active: bool) -> None:
        object.__setattr__(self, "active", active)
        object.__setattr__(self, "length", 1)
        object.__setattr__(self, "dimension", 1 if active else 0)
        object.__setattr__(self, "_hash", hash((active,)))


class Branch(CodeTree):
    """Internal node {(u + v, v)}: ``left`` supplies u and ``right`` supplies
    v; its hash is that of the tuple ``(left, right)``."""

    __slots__ = _fields = ("left", "right")

    def __init__(self, left: CodeTree, right: CodeTree) -> None:
        length = left.length
        if length != right.length:
            raise ValueError(
                f"children have unequal lengths:"
                f" {length} vs {right.length}"
            )
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "length", 2 * length)
        object.__setattr__(self, "dimension", left.dimension + right.dimension)
        object.__setattr__(self, "_hash", hash((left, right)))


def rm_tree(r: int, m: int) -> CodeTree:
    """The order-r Reed-Muller tree of depth m.

    Recursively, left = rm_tree(r-1, m-1) and right = rm_tree(r, m-1); the
    depth-0 base case is an active leaf iff r >= 0.  r < 0 yields the zero
    code and r >= m the full space.  Equivalently, leaf i is active iff
    popcount(i) >= m - r.  Structurally equal subtrees are shared.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    return _rm_tree(min(max(r, -1), m), m)


@lru_cache(maxsize=None)
def _rm_tree(r: int, m: int) -> CodeTree:
    # r is pre-clamped to [-1, m], which keeps the cache canonical.
    if m == 0:
        return Leaf(active=r >= 0)
    return Branch(_rm_tree(max(r - 1, -1), m - 1), _rm_tree(min(r, m - 1), m - 1))


def tree_from_active_set(m: int, active) -> CodeTree:
    """Depth-m tree whose leaf i is active iff i is in ``active``.

    Builds O(|active| * m) nodes: every index range without an active leaf
    is the all-frozen subtree of its depth, and every range of active leaves
    only the all-active one; both come from the ``rm_tree`` cache, so trees
    from separate calls share them with each other and with ``rm_tree``.
    The sorted indices and the intern table are passed down the recursion,
    never captured, so only the returned tree outlives the call.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    limit = 1 << m
    active_set = set()
    for i in active:
        if not is_int(i) or not 0 <= i < limit:
            raise ValueError(f"leaf index {i!r} outside 0..{limit - 1}")
        active_set.add(i)
    order = sorted(active_set)
    return _build(order, {}, m, 0, 0, len(order))


def _build(order, interned, depth: int, base: int, i: int, j: int) -> CodeTree:
    # order[i:j] are the active leaves in base..base + 2^depth - 1; a range
    # with none or all of them is the rm cache's uniform subtree.  Children
    # are interned before their parent, so equal subtrees are one object and
    # the (left, right) key hashes and compares in O(1).
    if i == j:
        return _rm_tree(-1, depth)
    if j - i == 1 << depth:
        return _rm_tree(depth, depth)
    mid = base + (1 << (depth - 1))
    cut = bisect_left(order, mid, i, j)
    left = _build(order, interned, depth - 1, base, i, cut)
    right = _build(order, interned, depth - 1, mid, cut, j)
    node = interned.get((left, right))
    if node is None:
        node = interned[left, right] = Branch(left, right)
    return node


def active_leaves(tree: CodeTree) -> tuple[int, ...]:
    """Indices of the active leaves, in increasing order.

    One call of the memoised fold: a leaf gives ``(0,)`` if it is active and
    ``()`` if not, a branch its left tuple and then its right one shifted by
    the left's length, so each distinct subtree costs one tuple.
    """
    return _fold(
        tree,
        lambda t: (0,) if t.active else (),
        lambda t, left, right: (*left, *[i + t.left.length for i in right]),
    )


def _fold(tree: CodeTree, leaf, branch):
    """``leaf(node)`` at a leaf and ``branch(node, left value, right value)``
    at a branch, leaves-to-root, evaluated once per distinct subtree: the
    memo is keyed by value, and an interned subtree is found by identity.
    The memo is passed down the recursion, never captured, so only the
    root's value outlives the call."""
    return _fold_node(tree, {}, leaf, branch, None)


def _fold_node(t: CodeTree, memo: dict, leaf, branch, key):
    # key=None keys the memo by value; equality's numbering passes key=id,
    # since a value key would compare trees, and so start folds, inside it.
    got = memo.get(k := t if key is None else key(t))
    if got is None:
        if isinstance(t, Leaf):
            got = leaf(t)
        else:
            left = _fold_node(t.left, memo, leaf, branch, key)
            got = branch(t, left, _fold_node(t.right, memo, leaf, branch, key))
        memo[k] = got
    return got


def ensemble_wef_int(tree: CodeTree, max_weight: int) -> tuple[int, list[int]]:
    """The weights 0..min(max_weight, length) of ensemble_wef(tree) in integer
    form ``(den, nums)``: coefficient w is nums[w] / den, over the least
    common denominator.

    Every node keeps only its weights <= max_weight, which is all its parent
    needs (plotkin.combine_int), so a small ``max_weight`` costs O(W^2)
    big-int products plus O(W^2) additions per distinct node, whatever the
    length.  The one memoised fold evaluates each distinct subtree once per
    call, and finds a shared subtree, such as an ``rm_tree`` uniform one, by
    identity.
    """
    if max_weight < 0:
        raise ValueError(f"max_weight must be >= 0, got {max_weight}")
    return _fold(
        tree,
        lambda t: (1, [1, int(t.active)][: max_weight + 1]),
        lambda t, u, v: combine_int(t.left.length, u, v, max_weight),
    )


def ensemble_wef(tree: CodeTree) -> WeightEnumerator:
    """Spectrum of the tree ensemble with an independent uniform interleaver
    at every internal node, evaluated leaves-to-root.

    Frozen leaf -> 1; active leaf -> 1 + x; branch -> combine(left, right).
    Structurally equal subtrees are evaluated once per call.
    """
    return WeightEnumerator(tree.length, fractions_over(*ensemble_wef_int(tree, tree.length)))


def dual_tree(tree: CodeTree) -> CodeTree:
    """The tree of the dual ensemble: leaf 2^m-1-i is active iff leaf i of
    ``tree`` is frozen.

    The dual of {(u + v*perm, v)} is, with its halves swapped, the same
    construction with C_v's dual supplying u and C_u's dual supplying v, so
    with n = tree.length, oracle.macwilliams(ensemble_wef_int(tree, n)) ==
    ensemble_wef_int(dual_tree(tree), n); dual_tree(rm_tree(r, m)) ==
    rm_tree(m-r-1, m).
    The one memoised fold flips each distinct subtree once, so shared
    subtrees stay shared: a sparse depth-40 tree's dual has as few nodes.
    """
    return _fold(tree, lambda t: Leaf(not t.active), lambda t, left, right: Branch(right, left))


def generator_matrix(tree: CodeTree) -> BinaryMatrix:
    """Generator of the identity-permutation instance of the tree's code.

    Each active leaf contributes one row, in leaf-index order.  One call of
    the memoised fold builds them as the (u + v, v) construction does: an
    active leaf gives the row ``1``, and a branch keeps its left rows as
    (g | 0) and repeats each right row in both halves, (g | g).  So leaf i's
    row has a 1 at every position p whose bits are a subset of i's bits.
    Each distinct subtree costs one tuple of rows.  The rows are linearly
    independent, so k = dimension(tree).
    """
    # Imported here, so that rm and tree load oracle only for
    # --emit-generator.
    from .oracle import BinaryMatrix

    rows = _fold(
        tree,
        lambda t: (1,) if t.active else (),
        lambda t, left, right: (*left, *[g | g << t.left.length for g in right]),
    )
    return BinaryMatrix(tree.length, rows)


def tree_to_json_dict(tree: CodeTree) -> dict:
    """Canonical JSON form: depth plus the sorted active-leaf indices."""
    return {"m": tree.length.bit_length() - 1, "active": list(active_leaves(tree))}


def tree_json_depth(obj) -> int:
    """Depth m of a tree JSON object, validated without building the tree."""
    if not isinstance(obj, dict):
        raise ValueError("tree JSON must be an object")
    if "rm" in obj:
        params = obj["rm"]
        if (
            not isinstance(params, dict)
            or not is_int(params.get("r"))
            or not is_int(params.get("m"))
        ):
            raise ValueError('"rm" form needs integer fields "r" and "m"')
        return params["m"]
    if "m" in obj and "active" in obj:
        if not is_int(obj["m"]) or not isinstance(obj["active"], list):
            raise ValueError('"active" form needs integer "m" and a list "active"')
        return obj["m"]
    raise ValueError('tree JSON needs either an "rm" or an "m"/"active" form')


def tree_from_json_dict(obj) -> CodeTree:
    """Accepts {"m":..., "active":[...]} or {"rm": {"r":..., "m":...}}."""
    m = tree_json_depth(obj)
    if "rm" in obj:
        return rm_tree(obj["rm"]["r"], m)
    return tree_from_active_set(m, obj["active"])
