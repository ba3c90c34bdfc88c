"""Combining two component spectra under a uniform random interleaver.

For component codes C_u and C_v of equal length n, the length-2n construction
{(u + v*perm, v) : u in C_u, v in C_v} with a uniformly random coordinate
permutation ``perm`` has an ensemble-average spectrum that depends only on the
two component spectra; this module evaluates it exactly.  The semantics is the
ensemble average over the shared random permutation: no concentration claim is
made for any specific draw.

The evaluation takes u as integer numerators over its common denominator and
pre-scales v by lcm of the row-n binomials, which folds the hypergeometric
division by C(n, v-weight) into v; the kernel then works purely on big
integers, and one exact division per output weight closes the computation.
With m = (w - j)/2 the number of v-ones that land on u-zeros, the numerator
of output weight w is sum_j u[j] C(n-j, m) A_j(m), where the binomial sums
A_j(m) = sum_i C(j, i) v_hat[m+i] obey Pascal's rule in j (kernel.py): a
full combine costs about n^2/2 big-int products and n^2/2 additions.
Integer arithmetic is exact, so results never depend on evaluation order.
The binomial rows, the scale and the multipliers scale / C(n, b) depend on
n and the highest component weight k alone: they form the combine plan of
(n, k), built once and kept among the last few (``_plan``).

Complementing the v-word (v -> v + 1, and perm(1) = 1) keeps the u-weight j,
maps v-weight b to n - b and output weight w to 2n - w, with the same
probability.  So a palindromic v-spectrum (v_b = v_{n-b}, as for any code
holding the all-ones word: every RM(r >= 0) node, every tree whose rightmost
leaf is active) gives a palindromic output, out_w = out_{2n-w}, and
palindromic binomial-sum columns; on a full window the kernel evaluates the
weights 0..n on half of each column and mirrors the rest, at
(n/2 + 1)^2 products and about n^2/4 additions at even n.  The symmetry is
read off the data; nothing selects it.

Spectra travel in integer form: a ``(den, nums)`` pair, coefficient j being
nums[j] / den.  ``combine_int`` is the one combine: it takes that form,
makes the one kernel call and reduces its output by one gcd to the least
common denominator, so a tree recursion (codetree.ensemble_wef_int) and the
CLI never build a Fraction per coefficient.  Its callers hand it each input
prefix in lowest terms already (enumerator.spectrum_from_json, the output of
an earlier ``combine_int``, enumerator.common_denominator), so nothing is
reduced on the way in.  ``combine`` and ``combine_single_weight`` are
Fraction views of it, through enumerator.common_denominator and
enumerator.fractions_over.

An output word of weight w has a u-part and a v-part of weight at most w, so
the output weights 0..W need only the component weights 0..min(W, n).
``combine_int`` evaluates a window of output weights lo..W from just those:
the window 0..W costs O(W^2) products and O(W^2) additions for W <= n,
the full ``combine`` is its W = 2n case, and ``combine_single_weight`` the
window w..w, in O(t) products and O(t^2) additions with
t = min(w, 2n - w, n); truncation therefore closes under tree recursion.
"""

from __future__ import annotations

import functools
import math
from operator import add, mul

from . import kernel
from .combinatorics import shared_table
from .enumerator import WeightEnumerator, common_denominator, fractions_over


def _truncated_rows(n: int, k: int) -> dict[int, list[int]]:
    """Rows n-k..n, keyed by row, as far as a window of output weights <= k
    reads them (2k < n): entries 0..(k-j)//2 of row n-j for j >= 1, and
    entries 0..k of row n, whose lcm is the scale.

    Each row is Pascal's rule over the one below it, which gives as many
    entries as that row has; the rest come from C(a, b) = C(a, b-1) (a-b+1) / b.
    That is about k^2/4 integers, not (k+1)^2.
    """
    rows = {}
    row = []
    for a in range(n - k, n + 1):
        row = [1, *map(add, row, row[1:])]
        top = k if a == n else (k - n + a) // 2
        for b in range(len(row), top + 1):
            row.append(row[-1] * (a - b + 1) // b)
        rows[a] = row
    return rows


@functools.lru_cache(maxsize=64)
def _plan(n: int, k: int) -> tuple:
    """The combine plan of length n over the component weights 0..k:
    ``(rows, scale, mults)``, with ``rows[a]`` holding C(a, .) as far as the
    kernel reads it, scale = lcm(C(n, 0..k)) and mults[b] = scale // C(n, b).

    A plan depends on (n, k) only, and a tree recursion meets the same pair
    at every node of a level, so the last 64 plans are kept; every
    caller gets the same lists, which nothing writes to.  A full plan
    (2k >= n) holds the rows of the shared table, copying none, and grows
    that table to row n if it is shorter; a truncated plan owns its ~k^2/4
    entries.  So the memory of the plans is rows 0..n of the largest full
    plan (50 MiB at n = 1024) plus up to 64 truncated plans of ~k^2/4
    entries each.
    """
    rows = shared_table(n).rows if 2 * k >= n else _truncated_rows(n, k)
    row_n = rows[n][: k + 1]
    scale = math.lcm(*row_n)
    return rows, scale, [*map(scale.__floordiv__, row_n)]


def _common_length(u_spectrum: WeightEnumerator, v_spectrum: WeightEnumerator) -> int:
    if v_spectrum.length != u_spectrum.length:
        raise ValueError(
            f"component lengths differ: {u_spectrum.length} vs {v_spectrum.length}"
        )
    return u_spectrum.length


def combine_int(n: int, u, v, max_weight: int, min_weight: int = 0) -> tuple[int, list[int]]:
    """Integer form of the combine: ``(den, nums)`` in, ``(den, nums)`` out.

    ``u`` and ``v`` are length-n spectra as ``(den, nums)`` pairs, coefficient
    j being nums[j] / den; only nums[0..k], k = min(max_weight, n), are read,
    and the caller hands that prefix of each over its least common
    denominator: gcd(den, *nums[:k + 1]) == 1.  Only the output is reduced.
    The result holds the coefficients of x^min_weight..x^min(max_weight, 2n)
    over their least common denominator: ``den`` is the lcm of the reduced
    coefficient denominators, which is what ``enumerator.common_denominator``
    gives, so a tree recursion passes the kernel the same integers at every
    node as a recursion over reduced fractions would.

    u enters the kernel as its integer numerators; ``scale`` = lcm(C(n, 0..k))
    makes every v_hat[b] = v_num[b] * scale / C(n, b) an integer, and the
    closing denominator is u_den * v_den * scale.  A window 0..W with
    W > n reads all of v, and when v is a palindrome so is v_hat, which the
    kernel reads off.
    """
    if n < 1:
        raise ValueError("component length must be >= 1")
    hi = min(max_weight, 2 * n)
    if not 0 <= min_weight <= hi:
        raise ValueError(f"weights {min_weight}..{max_weight}: empty or outside 0..{2 * n}")
    k = min(max_weight, n)
    (u_den, u_nums), (v_den, v_nums) = u, v
    if len(u_nums) <= k or len(v_nums) <= k:
        raise ValueError(f"component spectra need coefficients 0..{k}")
    rows, scale, mults = _plan(n, k)
    # mults has k + 1 entries, so v_hat stops at weight k.
    v_hat = [*map(mul, v_nums, mults)]
    nums = kernel.combine_numerators(n, u_nums, v_hat, rows, min_weight, hi)
    den = u_den * v_den * scale
    g = math.gcd(den, *nums)
    if g == 1:
        return den, nums
    return den // g, [num // g for num in nums]


def combine(u_spectrum: WeightEnumerator, v_spectrum: WeightEnumerator) -> WeightEnumerator:
    """Exact ensemble spectrum of {(u + v*perm, v)} from component spectra.

    ``u_spectrum`` belongs to the code supplying u (first half only),
    ``v_spectrum`` to the code supplying v (second half, plus its permuted
    copy in the first half).  The output has length 2n.
    """
    n = _common_length(u_spectrum, v_spectrum)
    u, v = common_denominator(u_spectrum.coeffs), common_denominator(v_spectrum.coeffs)
    return WeightEnumerator(2 * n, fractions_over(*combine_int(n, u, v, 2 * n)))


def combine_single_weight(
    u_spectrum: WeightEnumerator, v_spectrum: WeightEnumerator, w: int
) -> Fraction:
    """Coefficient of x^w of combine(...), without computing the other weights.

    Reads the component coefficients 0..min(w, n) only.  The kernel works on
    the window [w, w]: with t = min(w, 2n - w, n), the one weight costs about
    t^2/2 big-integer additions (the binomial sums on the diagonal the weight
    reads) and at most t/2 + 1 products.
    """
    n = _common_length(u_spectrum, v_spectrum)
    k = min(w, n) + 1
    u = common_denominator(u_spectrum.coeffs[:k])
    v = common_denominator(v_spectrum.coeffs[:k])
    (coeff,) = fractions_over(*combine_int(n, u, v, w, w))
    return coeff


def min_distance_combine(d_u: int, d_v: int) -> int:
    """Minimum distance of the (u + v, v) construction from component distances."""
    if d_u < 1 or d_v < 1:
        raise ValueError(f"minimum distances must be >= 1, got {d_u}, {d_v}")
    return min(d_u, 2 * d_v)
