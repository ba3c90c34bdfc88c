"""Binary construction trees with frozen and active length-1 leaves.

A depth-m tree describes a length-2^m code assembled bottom-up: each internal
node forms {(u + v, v)} from its left child's code (supplying u) and its right
child's code (supplying v).  A frozen leaf is a coordinate pinned to 0, an
active leaf carries one free bit.

Leaf indexing convention: leaves are numbered 0..2^m-1 left to right, i.e. the
bit of the index at depth d (most significant bit = the root split) is 0 on
the left/u side and 1 on the right/v side.  In-order traversal therefore
visits indices in increasing order.

Trees are immutable values whose identity is cheap: a Branch computes its
hash from its children's once, at construction, and ``rm_tree`` and
``tree_from_active_set`` build each distinct subtree once and share it, so
the per-call memo of ``ensemble_wef_int`` finds a repeated subtree by
identity.  That recursion carries every spectrum as ``(den, nums)`` (see
plotkin.py); ``ensemble_wef`` is its Fraction view.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache

from .enumerator import Value, WeightEnumerator, fractions_over, is_int
from .plotkin import combine_int


class CodeTree(Value):
    """Base class for Leaf and Branch; trees are immutable values."""

    __slots__ = ()


class Leaf(CodeTree):
    __slots__ = _fields = ("active",)

    def __init__(self, active: bool) -> None:
        object.__setattr__(self, "active", active)

    # Leaves and branches are built and hashed on every tree-building call,
    # so both spell out their own equality and hash.
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.active == other.active

    def __hash__(self) -> int:
        return hash((self.active,))

    @property
    def length(self) -> int:
        return 1

    @property
    def dimension(self) -> int:
        return 1 if self.active else 0


class Branch(CodeTree):
    """Internal node; its hash, length and dimension are computed once, at
    construction, from the children's, so none of them walks the subtree."""

    _fields = ("left", "right")
    __slots__ = (*_fields, "length", "dimension", "_hash")

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

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other):
        """Structural equality in O(distinct node pairs): each tree shares its
        equal subtrees, so a pair of nodes met again is not compared again."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        seen = set()
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is b or (id(a), id(b)) in seen:
                continue
            if a.__class__ is not b.__class__ or hash(a) != hash(b):
                return False
            if a.__class__ is Branch:
                seen.add((id(a), id(b)))
                pairs += (a.right, b.right), (a.left, b.left)
            elif a != b:
                return False
        return True


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
    is the one all-frozen subtree of its depth.
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

    # Children are interned before their parent, so equal subtrees are one
    # object and the (left, right) key hashes and compares in O(1).
    interned: dict[tuple[CodeTree, CodeTree], Branch] = {}

    def branch(left: CodeTree, right: CodeTree) -> Branch:
        node = interned.get((left, right))
        if node is None:
            node = interned[left, right] = Branch(left, right)
        return node

    active_leaf, frozen = Leaf(True), [Leaf(False)]
    for _ in range(m):
        frozen.append(branch(frozen[-1], frozen[-1]))

    def build(depth: int, base: int, i: int, j: int) -> CodeTree:
        # order[i:j] are the active leaves in base..base + 2^depth - 1.
        if i == j:
            return frozen[depth]
        if depth == 0:
            return active_leaf
        mid = base + (1 << (depth - 1))
        cut = bisect_left(order, mid, i, j)
        return branch(build(depth - 1, base, i, cut), build(depth - 1, mid, cut, j))

    return build(m, 0, 0, len(order))


def active_leaves(tree: CodeTree) -> tuple[int, ...]:
    """Indices of the active leaves, in increasing order; a subtree of
    dimension 0 is skipped whole."""
    out: list[int] = []

    def walk(t: CodeTree, base: int) -> None:
        if not t.dimension:
            return
        if isinstance(t, Leaf):
            out.append(base)
            return
        walk(t.left, base)
        walk(t.right, base + t.left.length)

    walk(tree, 0)
    return tuple(out)


def depth_of(tree: CodeTree) -> int:
    return tree.length.bit_length() - 1


def ensemble_wef_int(tree: CodeTree, max_weight: int) -> tuple[int, list[int]]:
    """The weights 0..min(max_weight, length) of ensemble_wef(tree) in integer
    form ``(den, nums)``: coefficient w is nums[w] / den, over the least
    common denominator.

    Every node keeps only its weights <= max_weight, which is all its parent
    needs (plotkin.combine_int), so a small ``max_weight`` costs O(W^2)
    big-int products plus O(W^2) additions per distinct node, whatever the
    length.  Structurally equal subtrees are evaluated once per call; an
    interned subtree is found by identity.
    """
    if max_weight < 0:
        raise ValueError(f"max_weight must be >= 0, got {max_weight}")
    cache: dict[CodeTree, tuple[int, list[int]]] = {}

    def wef(t: CodeTree) -> tuple[int, list[int]]:
        got = cache.get(t)
        if got is not None:
            return got
        if isinstance(t, Leaf):
            out = (1, [1, int(t.active)][: max_weight + 1])
        else:
            out = combine_int(t.left.length, wef(t.left), wef(t.right), max_weight)
        cache[t] = out
        return out

    return wef(tree)


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
    MacWilliams(ensemble_wef(tree)) == ensemble_wef(dual_tree(tree))
    (oracle.macwilliams); dual_tree(rm_tree(r, m)) == rm_tree(m-r-1, m).
    Shared subtrees stay shared.
    """
    dual: dict[CodeTree, CodeTree] = {}

    def flip(t: CodeTree) -> CodeTree:
        got = dual.get(t)
        if got is None:
            if isinstance(t, Leaf):
                got = Leaf(not t.active)
            else:
                got = Branch(flip(t.right), flip(t.left))
            dual[t] = got
        return got

    return flip(tree)


def generator_matrix(tree: CodeTree) -> BinaryMatrix:
    """Generator of the identity-permutation instance of the tree's code.

    Each active leaf contributes one row, in leaf-index order: rows from the
    left subtree extend as (g | 0), rows from the right subtree as (g | g).
    The rows are linearly independent, so k = dimension(tree).
    """
    # Imported here, so that rm and tree load oracle only for
    # --emit-generator.
    from .oracle import BinaryMatrix

    def rows_of(t: CodeTree) -> list[int]:
        if isinstance(t, Leaf):
            return [1] if t.active else []
        half = t.left.length
        left_rows = rows_of(t.left)
        left_rows.extend(g | (g << half) for g in rows_of(t.right))
        return left_rows

    return BinaryMatrix(tree.length, tuple(rows_of(tree)))


def tree_to_json_dict(tree: CodeTree) -> dict:
    """Canonical JSON form: depth plus the sorted active-leaf indices."""
    return {"m": depth_of(tree), "active": list(active_leaves(tree))}


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
