"""Rows of Pascal's triangle and the interleaver-average combining weight.

Every binomial row the combines read is built here, by one walk
(``pascal_rows``): the session's shared half rows, and the rows n-k..n of
a truncated combine plan.  The kernel alone reads them, a half row past its
middle included.

Everything here runs on Python's arbitrary-precision integers and
`fractions.Fraction`; no floating point, no modular shortcuts.
"""

from __future__ import annotations

import math
from operator import add

from .enumerator import _fraction_class


class BinomialTable:
    """Rows 0..n of Pascal's triangle, each to its middle: ``rows[a]`` is
    [C(a, 0), ..., C(a, a//2)]; the rest of the row is C(a, b) = C(a, a-b),
    which the kernel reads from the stored half backwards.

    The rows are ``pascal_rows`` with lag 0.  They are built once and never
    mutated afterwards, so a table can be shared freely between threads.
    Row a holds a//2 + 1 integers of up to a bits, so the rows grow as n^3:
    rows 0..512 take 4.2 MiB and rows 0..1024 25 MiB (``sys.getsizeof`` of
    the lists and their integers), half of what whole rows take; see
    ``shared_table`` for which rows the session holds.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: list[list[int]]) -> None:
        self.rows = rows


def extend_row(row: list[int], a: int, top: int) -> list[int]:
    """``row``, a prefix of row a of Pascal's triangle, extended in place to
    the entries 0..top by C(a, b) = C(a, b-1) (a-b+1) / b; returns ``row``."""
    for b in range(len(row), top + 1):
        row.append(row[-1] * (a - b + 1) // b)
    return row


def pascal_rows(row: list[int], first: int, last: int, lag: int) -> list[list[int]]:
    """Rows first..last of Pascal's triangle, row a holding the entries
    0..(a-lag)//2: [C(a, 0), ..., C(a, (a-lag)//2)].

    ``row`` is row first-1 as far as it is kept, or [] for none.  Each row
    is Pascal's rule over the one above it, which gives as many entries as
    that row keeps, and ``extend_row`` adds the rest.  This is the one place
    rows are built: lag 0 gives the half rows of the shared table, and a
    truncated plan of length n over the weights 0..k (2k < n) takes rows
    n-k..n with lag n-k from the empty row, the entries 0..(k-j)//2 of row
    n-j that its windows read.
    """
    rows = []
    for a in range(first, last + 1):
        row = extend_row([1, *map(add, row, row[1:])], a, (a - lag) // 2)
        rows.append(row)
    return rows


_shared = BinomialTable([[1]])


def shared_table(min_n: int) -> BinomialTable:
    """Session-wide table covering rows up to at least ``min_n``, each to
    its middle entry (``BinomialTable``).

    It starts at row 0 and grows only when asked for a row it lacks, which
    ``plotkin._plan`` does for a full plan of length n alone: the table holds
    rows 0..n of the largest full plan of the session, never more.  A
    truncated plan holds its own ~k^2/4 entries and leaves the table as it is,
    and ``plotkin_coefficient`` never touches it.

    Grows on demand and is never shrunk; every row is built at most once per
    session: growth copies the list of rows, sharing every row object, and
    appends the new rows (``pascal_rows`` from the last row held) to the
    copy.  No row is ever mutated, so concurrent readers may hold different
    generations, all of which agree on shared rows.
    """
    global _shared
    table = _shared
    if len(table.rows) <= min_n:
        rows = table.rows
        table = _shared = BinomialTable([*rows, *pascal_rows(rows[-1], len(rows), min_n, 0)])
    return table


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
