"""Core of the interleaver-average combine: a binomial-sum evaluation.

A u-word of weight j and a v-word of weight b overlap in i positions with the
hypergeometric probability C(j, i) C(n-j, b-i) / C(n, b) under the uniform
interleaver, giving an output word of weight j + 2b - 2i.  Let m = b - i be
the number of v-ones that land on u-zeros.  The pair (w, j) fixes
m = (w-j)/2, so b and i fold into one inner sum, and the numerator of output
weight w is

    num_w = sum_j u[j] * C(n-j, m) * A_j(m),    m = (w-j)/2,
    A_j(m) = sum_i C(j, i) * v_hat[m + i],

with j running over j = w (mod 2), j <= min(w, 2n-w, k).  ``u`` holds the
integer numerators of the u-spectrum over its common denominator;
``v_hat[b]`` = v_num[b] * lcm(C(n, 0..k)) / C(n, b) is pre-scaled by the
caller (plotkin.py), which performs the closing division.

The inner sums obey Pascal's rule, A_j(m) = A_{j-1}(m) + A_{j-1}(m+1), from
A_0 = v_hat, so each j costs one ``map(add)`` over at most k+1 integers and
only one row of A is alive at a time: working memory is O(n).  A u-weight
with u[j] = 0 adds nothing but still advances A.  A full combine therefore
costs about n^2/2 big-int additions and n^2/2 products u[j] * C(n-j, m) *
A_j(m), one per (j, m) with m <= n-j; an output weight whose parity no
nonzero u-weight shares receives no term.

``combine_numerators(n, u, v_hat, rows, max_weight)`` evaluates the output
weights 0..max_weight (at most 2n) in one call.  With k = min(max_weight, n),
those weights, like ``single_weight_numerator`` at w = max_weight, read u and
v_hat at indices 0..k and entries 0..k of the rows n-k..n of ``rows`` (rows[a]
holds C(a, .)); nothing else of ``rows`` needs to exist.  Every term they
need has m + j <= k, so A_j(m) is exact on the v_hat prefix.
"""

from operator import add, mul


def single_weight_numerator(n, u, v_hat, rows, w):
    """num_w alone: the A-recurrence on the window the diagonal
    m = (w-j)/2 reads, with one product per u-weight of w's parity."""
    top = min(w, 2 * n - w, len(u) - 1)
    if (top ^ w) & 1:
        top -= 1
    while top >= 0 and not u[top]:
        top -= 2
    if top < 0:
        return 0
    # A_j is needed at m = (w-j)/2 for j <= top, which reads v_hat on
    # lo..(w+top)/2; the window loses its last entry at every step.
    lo = (w - top) >> 1
    a = v_hat[lo : lo + top + 1]
    total = 0
    for j in range(top + 1):
        if j:
            a = [*map(add, a, a[1:])]
        if not (j ^ w) & 1 and u[j]:
            m = (w - j) >> 1
            total += u[j] * rows[n - j][m] * a[m - lo]
    return total


def combine_numerators(n, u, v_hat, rows, max_weight):
    out = [0] * (max_weight + 1)
    last = min(len(u) - 1, max_weight)
    while last >= 0 and not u[last]:
        last -= 1
    a = v_hat
    for j in range(last + 1):
        if j:
            a = [*map(add, a, a[1:])]
        if u[j]:
            count = min(len(a), (max_weight - j) // 2 + 1)
            terms = map(mul, a[:count], rows[n - j][:count])
            if u[j] != 1:
                terms = map(u[j].__mul__, terms)
            stop = j + 2 * count
            out[j:stop:2] = map(add, out[j:stop:2], terms)
    return out
