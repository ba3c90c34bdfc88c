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

``combine_numerators(n, u, v_hat, rows, lo, hi)``, the one entry point,
returns the numerators of the output weights lo..hi (hi <= 2n): lo = 0 gives
a prefix and lo = hi a single weight.  With k = min(hi, n), a window reads

- u[0..last], last = min(hi, 2n - lo, k): a weight w >= lo has m <= n-j,
  so no u-weight above 2n - lo reaches it;
- v_hat[s..min(k, (hi + last)/2)], s = max(0, (lo - last)/2): weight lo needs
  m >= (lo - j)/2, and Pascal's rule reads A only upwards in m, so A is
  kept on m >= s alone;
- entries s..min(k - j, (hi - j)/2) of rows[n-j] for j <= last (rows[a]
  holds C(a, .); nothing else of ``rows`` needs to exist);

so u, v_hat and the rows need the indices 0..k only.  A prefix 0..W
(W <= n) costs about W^2/2 additions and W^2/2 products; one weight w costs
about t^2/2 additions and at most t/2 + 1 products, t = min(w, 2n-w, k).
"""

from operator import add, mul


def combine_numerators(n, u, v_hat, rows, lo, hi):
    out = [0] * (hi - lo + 1)
    last = min(len(u) - 1, hi, 2 * n - lo)
    while last >= 0 and not u[last]:
        last -= 1
    # a[i] holds A_j(s + i).
    s = max(0, (lo - last) // 2)
    a = v_hat[s : (hi + last) // 2 + 1]
    for j in range(last + 1):
        if j:
            a = [*map(add, a, a[1:])]
        if u[j]:
            # The m of the weights j + 2m in lo..hi: first .. first + count - 1.
            first = max(s, (lo - j + 1) // 2)
            count = min(s + len(a), (hi - j) // 2 + 1) - first
            if count <= 0:
                continue
            terms = map(
                mul, a[first - s : first - s + count], rows[n - j][first : first + count]
            )
            if u[j] != 1:
                terms = map(u[j].__mul__, terms)
            start = j + 2 * first - lo
            stop = start + 2 * count
            out[start:stop:2] = map(add, out[start:stop:2], terms)
    return out
