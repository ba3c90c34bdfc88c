"""Exact binomial coefficients and the interleaver-average combining weight.

Everything here runs on Python's arbitrary-precision integers and
`fractions.Fraction`; no floating point, no modular shortcuts.
"""

from __future__ import annotations

import math
from operator import add

from .enumerator import _fraction_class


class BinomialTable:
    """Rows 0..max_n of Pascal's triangle: ``rows[a]`` is [C(a, 0), ..., C(a, a)].

    Each row is one ``map(add)`` over the row before it.  Rows are built once
    and never mutated afterwards, so a table can be shared freely between
    threads.  Row a holds a + 1 integers of up to a bits, so the rows grow as
    n^3: rows 0..512 take 8.4 MiB and rows 0..1024 50 MiB (``sys.getsizeof``
    of the lists and their integers); see ``shared_table`` for which rows the
    session holds.
    """

    __slots__ = ("rows",)

    def __init__(self, max_n: int):
        if max_n < 0:
            raise ValueError(f"max_n must be >= 0, got {max_n}")
        self.rows = _extend_rows([[1]], max_n)

    @classmethod
    def _grown(cls, base: "BinomialTable", max_n: int) -> "BinomialTable":
        # Shares the existing row objects; rows are read-only by convention.
        table = cls.__new__(cls)
        table.rows = _extend_rows(list(base.rows), max_n)
        return table


def _extend_rows(rows: list[list[int]], max_n: int) -> list[list[int]]:
    row = rows[-1]
    for _ in range(len(rows), max_n + 1):
        row = [1, *map(add, row, row[1:]), 1]
        rows.append(row)
    return rows


_shared = BinomialTable(0)


def shared_table(min_n: int) -> BinomialTable:
    """Session-wide table covering rows up to at least ``min_n``.

    It starts at row 0 and grows only when asked for a row it lacks, which
    ``plotkin._plan`` does for a full plan of length n alone: the table holds
    rows 0..n of the largest full plan of the session, never more.  A
    truncated plan holds its own ~k^2/4 entries and leaves the table as it is,
    and ``binomial`` and ``plotkin_coefficient`` never touch it.

    Grows on demand and is never shrunk; every row is built at most once per
    session because growth extends the existing rows.  The returned table is
    immutable; concurrent readers may hold different generations, all of which
    agree on shared rows.
    """
    global _shared
    table = _shared
    if len(table.rows) <= min_n:
        table = BinomialTable._grown(table, min_n)
        _shared = table
    return table


def binomial(n: int, k: int) -> int:
    """C(n, k) for n >= 0; returns 0 when k < 0 or k > n.

    One value, from ``math.comb``: the shared table is not grown for it.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return math.comb(n, k) if k >= 0 else 0


def plotkin_coefficient(n: int, w: int, v_weight: int, v_only: int) -> Fraction:
    """Weight of one component-coefficient pair in the interleaver average.

    For the length-2n construction (u + permuted v, v), fix a combined word of
    weight ``w`` whose second half (the v-word) has weight ``v_weight`` and
    whose first half has exactly ``v_only`` coordinates where the permuted
    v-word is 1 but the u-word is 0; the u-word then has weight
    ``w - 2*v_only``.  The returned rational is

        C(n, w-v_weight) * C(w-v_weight, v_only) * C(n-w+v_weight, v_weight-v_only)
        ---------------------------------------------------------------------------
                         C(n, v_weight) * C(n, w-2*v_only)

    which is nonnegative and finite everywhere on the argument box validated
    below (the denominator binomials cannot vanish there, and every binomial
    is inside its support).  The five binomials come from ``math.comb``; the
    shared table is not grown for them.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 <= w <= 2 * n:
        raise ValueError(f"w={w} outside 0..{2 * n}")
    lo = max(0, w - n)
    if not lo <= v_weight <= min(w, n):
        raise ValueError(
            f"v_weight={v_weight} outside {lo}..{min(w, n)} for n={n}, w={w}"
        )
    if not lo <= v_only <= min(v_weight, w - v_weight):
        raise ValueError(
            f"v_only={v_only} outside {lo}..{min(v_weight, w - v_weight)}"
            f" for n={n}, w={w}, v_weight={v_weight}"
        )
    a = w - v_weight
    numerator = math.comb(n, a) * math.comb(a, v_only) * math.comb(n - a, v_weight - v_only)
    denominator = math.comb(n, v_weight) * math.comb(n, w - 2 * v_only)
    return _fraction_class()(numerator, denominator)
