"""Core of the interleaver-average combine: a per-weight Horner evaluation.

A u-word of weight j and a v-word of weight b overlap in i positions with the
hypergeometric probability C(j, i) C(n-j, b-i) / C(n, b) under the uniform
interleaver, giving an output word of weight j + 2b - 2i.  Collecting these
terms, the numerator of output weight w is

    sum_b v_hat[b] * [z^b] H_w(z),
    H_w(z) = sum_j u[j] * C(n-j, (w-j)/2) * z^((w-j)/2) * (1+z)^j,

with j running over j = w (mod 2), j <= min(w, 2n-w, k).  H_w is the
degree-w part of P(x, y) = sum_j u[j] (x+y)^j (1+xy)^(n-j) at z = y/x.
``u`` holds the integer numerators of the u-spectrum over its common
denominator; ``v_hat[b]`` = v_num[b] * lcm(C(n, 0..k)) / C(n, b) is
pre-scaled by the caller (plotkin.py), which performs the closing division.

Horner over j descending in steps of 2,

    G <- G * (1+z)^2 + u[j] * C(n-j, (w-j)/2) * z^((w-j)/2),

followed by H_w = G * (1+z)^(w mod 2), needs only big-int additions: after
the step for j, G is palindromic about (w-j)/2, so only its upper half
G[(w-j)/2 + d], d = 0, 1, ..., is kept, and one step is two ``map(add)``
passes over at most n/2 + 1 integers.  Working memory is O(n) per weight.
The chain starts at the highest nonzero u[j] of the right parity, so an
output weight whose parity no nonzero u-weight shares costs nothing.

``combine_numerators(n, u, v_hat, rows, max_weight)`` evaluates the output
weights 0..max_weight (at most 2n) in one call.  With k = min(max_weight, n),
those weights, like ``single_weight_numerator`` at w = max_weight, read u and
v_hat at indices 0..k and entries 0..k of the rows n-k..n of ``rows`` (rows[a]
holds C(a, .)); nothing else of ``rows`` needs to exist.
"""

from operator import add


def single_weight_numerator(n, u, v_hat, rows, w):
    parity = w & 1
    j = min(w, 2 * n - w, len(u) - 1)
    if (j ^ w) & 1:
        j -= 1
    while j >= 0 and not u[j]:
        j -= 2
    if j < 0:
        return 0
    t = (w - j) >> 1
    half = [u[j] * rows[n - j][t]]
    for j in range(j - 2, parity - 1, -2):
        # G * (1+z)^2 as two (1+z) passes over the upper half; the centre
        # of symmetry moves from t to t + 1, where the new term lands.
        t += 1
        odd = [*map(add, half, half[1:]), half[-1]]
        half = [odd[0] + odd[0]]
        half += map(add, odd, odd[1:])
        half.append(odd[-1])
        if u[j]:
            half[0] += u[j] * rows[n - j][t]
    if parity:
        # H_w = G * (1+z) is palindromic about t + 1/2; its upper half starts
        # at z^(t+1) and mirrors onto z^t, z^(t-1), ...
        half = [*map(add, half, half[1:]), half[-1]]
        return sum(c * (v_hat[t + 1 + d] + v_hat[t - d]) for d, c in enumerate(half))
    return half[0] * v_hat[t] + sum(
        c * (v_hat[t + d] + v_hat[t - d]) for d, c in enumerate(half[1:], 1)
    )


# combine_numerators reaches the loop through this private name, so a wrapper
# installed on the public module attribute (as perfbench's tracing does) sees
# one kernel call per combine, not one per output weight.
_single_weight = single_weight_numerator


def combine_numerators(n, u, v_hat, rows, max_weight):
    return [_single_weight(n, u, v_hat, rows, w) for w in range(max_weight + 1)]
