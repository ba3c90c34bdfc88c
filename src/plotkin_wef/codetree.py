"""Binary construction trees with frozen and active length-1 leaves.

A depth-m tree describes a length-2^m code assembled bottom-up: each internal
node forms {(u + v, v)} from its left child's code (supplying u) and its right
child's code (supplying v).  A frozen leaf is a coordinate pinned to 0, an
active leaf carries one free bit.

Leaf indexing convention: leaves are numbered 0..2^m-1 left to right, i.e. the
bit of the index at depth d (most significant bit = the root split) is 0 on
the left/u side and 1 on the right/v side.  In-order traversal therefore
visits indices in increasing order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .enumerator import WeightEnumerator, is_int
from .oracle import BinaryMatrix
from .plotkin import combine


class CodeTree:
    """Base class for Leaf and Branch; trees are immutable values."""

    @property
    def length(self) -> int:
        raise NotImplementedError

    @property
    def dimension(self) -> int:
        raise NotImplementedError


@dataclass(frozen=True)
class Leaf(CodeTree):
    active: bool

    @property
    def length(self) -> int:
        return 1

    @property
    def dimension(self) -> int:
        return 1 if self.active else 0


@dataclass(frozen=True)
class Branch(CodeTree):
    left: CodeTree
    right: CodeTree

    def __post_init__(self):
        if self.left.length != self.right.length:
            raise ValueError(
                f"children have unequal lengths:"
                f" {self.left.length} vs {self.right.length}"
            )

    @property
    def length(self) -> int:
        return 2 * self.left.length

    @property
    def dimension(self) -> int:
        return self.left.dimension + self.right.dimension


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
    """Depth-m tree whose leaf i is active iff i is in ``active``."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    limit = 1 << m
    active_set = set()
    for i in active:
        if not is_int(i) or not 0 <= i < limit:
            raise ValueError(f"leaf index {i!r} outside 0..{limit - 1}")
        active_set.add(i)

    def build(depth: int, base: int) -> CodeTree:
        if depth == 0:
            return Leaf(base in active_set)
        half = 1 << (depth - 1)
        return Branch(build(depth - 1, base), build(depth - 1, base + half))

    return build(m, 0)


def active_leaves(tree: CodeTree) -> tuple[int, ...]:
    """Indices of the active leaves, in increasing order."""
    out: list[int] = []

    def walk(t: CodeTree, base: int) -> None:
        if isinstance(t, Leaf):
            if t.active:
                out.append(base)
            return
        walk(t.left, base)
        walk(t.right, base + t.left.length)

    walk(tree, 0)
    return tuple(out)


def depth_of(tree: CodeTree) -> int:
    return tree.length.bit_length() - 1


_LEAF_FROZEN_WEF = WeightEnumerator(1, (Fraction(1), Fraction(0)))
_LEAF_ACTIVE_WEF = WeightEnumerator(1, (Fraction(1), Fraction(1)))


def ensemble_wef(tree: CodeTree) -> WeightEnumerator:
    """Spectrum of the tree ensemble with an independent uniform interleaver
    at every internal node, evaluated leaves-to-root.

    Frozen leaf -> 1; active leaf -> 1 + x; branch -> combine(left, right).
    Structurally equal subtrees are evaluated once per call.
    """
    cache: dict[CodeTree, WeightEnumerator] = {}

    def wef(t: CodeTree) -> WeightEnumerator:
        got = cache.get(t)
        if got is not None:
            return got
        if isinstance(t, Leaf):
            out = _LEAF_ACTIVE_WEF if t.active else _LEAF_FROZEN_WEF
        else:
            out = combine(wef(t.left), wef(t.right))
        cache[t] = out
        return out

    return wef(tree)


def generator_matrix(tree: CodeTree) -> BinaryMatrix:
    """Generator of the identity-permutation instance of the tree's code.

    Each active leaf contributes one row, in leaf-index order: rows from the
    left subtree extend as (g | 0), rows from the right subtree as (g | g).
    The rows are linearly independent, so k = dimension(tree).
    """

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


def tree_from_json_dict(obj) -> CodeTree:
    """Accepts {"m":..., "active":[...]} or {"rm": {"r":..., "m":...}}."""
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
        return rm_tree(params["r"], params["m"])
    if "m" in obj and "active" in obj:
        if not is_int(obj["m"]) or not isinstance(obj["active"], list):
            raise ValueError('"active" form needs integer "m" and a list "active"')
        return tree_from_active_set(obj["m"], obj["active"])
    raise ValueError('tree JSON needs either an "rm" or an "m"/"active" form')
