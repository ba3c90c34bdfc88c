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
  holds C(a, .); nothing else of ``rows`` needs to exist).  A row may stop
  at its middle, as the shared table's half rows [C(a, 0..a//2)] do; past
  the end of a row the kernel reads C(a, b) as C(a, a-b), the stored half
  backwards, and copies only the entries the window reads.  It reverses a
  forward slice: a step -1 slice down to C(a, a) = row[0] needs the stop
  -1, which counts from the row's end, so that slice comes out empty.  Only
  a window with hi > n that is not mirrored (below), for a skewed v or with
  lo > 0, reads past m = (n-j)/2; a mirrored window and a prefix hi <= n
  never do, and neither does a window over a truncated plan, whose rows
  hold just the entries it reads;

so u, v_hat and the rows need the indices 0..k only.  ``u`` may be
longer than k+1, as a whole length-n spectrum under a window hi < n is:
``last`` never exceeds k, so nothing past u[k] is read.  A prefix 0..W
(W <= n) costs about W^2/2 additions and W^2/4 products; one weight w costs
about t^2/2 additions and at most t/2 + 1 products, t = min(w, 2n-w, k).

Column j adds to the weights j + 2m for the ``count`` values of m from
``first`` = max(s, ceil((lo-j)/2)) on, up to the lesser of the window's top,
(top-j)/2, and the column's last kept entry.  Neither bound falls below
``first``, since j <= last <= top and lo + last <= 2k, so the count is never
negative; it is 0 only where no weight of the window has j's parity (lo = hi),
and then every slice it cuts is empty.

A palindromic v_hat (v_hat[b] = v_hat[n-b]; v_hat[b] / v_num[b] depends on
C(n, b) = C(n, n-b) only, so it is one iff the v-spectrum is, as for every
code holding the all-ones word) makes every column one too:
A_j(m) = A_j(n-j-m), as the substitution i -> j-i shows.  Complementing the
v-word maps output weight w to 2n - w, so the output is a palindrome as
well.  A window 0..hi with hi > n over such a v_hat therefore evaluates the
weights 0..n, which read m <= (n-j)/2 of column j alone, and copies the
weights n+1..hi from 2n-hi..n-1.  It keeps entries 0..(n-j)//2 of column j;
when n-j is even the step from column j-1 reads one entry beyond its kept
half, A_{j-1}((n-j)/2 + 1), which is the mirror of its last kept entry and
is appended before the step.  Such a full combine costs (n/2 + 1)^2
products at even n and about n^2/4 additions.
"""

from operator import add, mul


def combine_numerators(n, u, v_hat, rows, lo, hi):
    # A full window over a palindromic v_hat: evaluate 0..n, mirror the rest.
    half = lo == 0 and hi > n and v_hat[: n + 1] == v_hat[n::-1]
    top = n if half else hi
    out = [0] * (top - lo + 1)
    last = min(top, n, 2 * n - lo)
    while last >= 0 and not u[last]:
        last -= 1
    # a[i] holds A_j(s + i); under ``half`` only m <= (n - j)/2.
    s = max(0, (lo - last) // 2)
    a = v_hat[s : (n // 2 if half else (top + last) // 2) + 1]
    for j in range(last + 1):
        if j:
            if half and not (n - j) % 2:
                # A_{j-1}((n-j)/2 + 1), the mirror of the last kept entry.
                a.append(a[-1])
            a = [*map(add, a, a[1:])]
        if u[j]:
            # The m of the weights j + 2m in lo..top: first .. first + count - 1.
            first = max(s, (lo - j + 1) // 2)
            # The window's top bound keeps reads inside a truncated plan's rows.
            count = min(s + len(a), (top - j) // 2 + 1) - first
            row = rows[n - j]
            c = row[first : first + count]
            if len(c) < count:
                # Past the middle, C(n-j, m) = C(n-j, n-j-m) read backwards.
                # The lower bound saves copying only: map stops at a's slice.
                c += row[n - j - first - count + 1 : n - j - first - len(c) + 1][::-1]
            terms = map(mul, a[first - s : first - s + count], c)
            start = j + 2 * first - lo
            stop = start + 2 * count
            out[start:stop:2] = map(add, out[start:stop:2], map(u[j].__mul__, terms))
    if half:
        # Complementing the v-word maps output weight w to 2n - w.
        out += out[2 * n - hi : n][::-1]
    return out
