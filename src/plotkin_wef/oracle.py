"""Ground-truth spectra by exhaustive enumeration and sampled interleavers.

Codewords are bit-packed integers: bit j (``1 << j``) is coordinate j, which
corresponds to the leftmost character of the JSON bit-string form.  One
function, ``_weights``, counts a row space's words by weight, walking them in
Gray-code order so each step is one XOR and one popcount.

The two ensemble oracles are one count, ``_permutation_sums``, which adds the
integer spectrum of {(u + v*perm, v)} for each permutation it is fed.  Each
such instance is the row space of the Plotkin generator [G0 0; G1*perm G1],
counted by ``_weights``.  The oracles differ only in the permutations they
feed it: ``ensemble_wef_exhaustive`` all n! of them,
``ensemble_wef_montecarlo`` seeded draws of ``uniform_permutation``.

Every oracle run fits one budget, counted in the words it walks: ``count``
instances of summed rank r at length n walk count * (2^r + INSTANCE_WORDS +
COORDINATE_WORDS * n) words, count being 1 (brute force), n! (exhaustive) or
the samples (Monte Carlo).  One check, ``_budgeted_bases``, refuses a run
past WORD_BUDGET with BudgetError before a permutation is drawn or a word
walked.

``macwilliams`` is an oracle of another kind: it checks a whole spectrum
against the spectrum of the dual ensemble (codetree.dual_tree), at any length.
It works on the integer form ``(den, nums)``, as ``ensemble_wef_int`` returns
it, and builds no Fraction.

Reproducibility: the sampled-permutation routines draw from
``random.Random(seed)`` (the stdlib Mersenne Twister) through an explicit
Fisher-Yates loop, so a given seed yields the same permutation stream on every
platform and Python version.
"""

from __future__ import annotations

import itertools
import math
import random
import warnings
from collections import namedtuple
from operator import add, sub

from .enumerator import Value, WeightEnumerator, fractions_over, is_int
from .errors import BudgetError, RankDeficiencyWarning

# The one budget of every oracle run, in walked words.  Measured in-process
# on a 2-core VM with Python 3.11.7, a walked word taking 0.13-0.15 us: an
# instance costs INSTANCE_WORDS words plus COORDINATE_WORDS words a
# coordinate, its O(n) part (the n - 1 draws of a Fisher-Yates loop and the
# 2n + 1 sums).  Monte Carlo on zero codes at n = 7..64 fits 15.0 + 3.99 n
# words (12-17 words above 4n at each n); the exhaustive oracle's instance,
# the next permutation, its basis and the sums, costs 18-22 words at
# n = 8..10, below its 4n.  The budget admits the exhaustive oracle at n = 7
# up to rank 16, about 40 s, and bounds a run at about 40-50 s at any n.
INSTANCE_WORDS = 16
COORDINATE_WORDS = 4
WORD_BUDGET = math.factorial(7) * ((1 << 16) + INSTANCE_WORDS + COORDINATE_WORDS * 7)


class BinaryMatrix(Value):
    """A k x n matrix over GF(2); each row is a bit-packed integer."""

    __slots__ = _fields = ("n", "rows")

    def __init__(self, n: int, rows) -> None:
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        rows = tuple(rows)
        for r, row in enumerate(rows):
            # bit_length, not a comparison with 1 << n: n may be far too
            # large for that integer to exist.
            if not isinstance(row, int) or row < 0 or row.bit_length() > n:
                raise ValueError(f"row {r} does not fit in {n} columns")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    @property
    def k(self) -> int:
        return len(self.rows)

    @classmethod
    def from_strings(cls, strings, n: int | None = None) -> "BinaryMatrix":
        """Rows as '0110...' strings, leftmost character = coordinate 0."""
        strings = list(strings)
        if n is None:
            if not strings:
                raise ValueError("n is required for a matrix with no rows")
            n = len(strings[0])
        rows = []
        for s in strings:
            if len(s) != n or set(s) - {"0", "1"}:
                raise ValueError(f"bad row {s!r}: need {n} characters from 0/1")
            # Joined: a row may also be a list of "0"/"1" strings.
            rows.append(int("".join(s)[::-1] or "0", 2))
        return cls(n, tuple(rows))

    def to_strings(self) -> list[str]:
        return [format(row, f"0{self.n}b")[::-1] for row in self.rows]

    def row_space_basis(self, max_rank=math.inf) -> tuple[int, ...]:
        """A basis of the row space (row echelon by leading bit).  The walk
        stops once the basis holds more than ``max_rank`` rows, so it then
        returns a basis of the first rows' span, after at most
        k * (max_rank + 1) row reductions."""
        pivots: dict[int, int] = {}
        for row in self.rows:
            if len(pivots) > max_rank:
                break
            cur = row
            while cur:
                msb = cur.bit_length() - 1
                if msb in pivots:
                    cur ^= pivots[msb]
                else:
                    pivots[msb] = cur
                    break
        return tuple(pivots[msb] for msb in sorted(pivots, reverse=True))

    def rank(self) -> int:
        return len(self.row_space_basis())

    def to_json_dict(self) -> dict:
        return {"n": self.n, "rows": self.to_strings()}

    @classmethod
    def from_json_dict(cls, obj) -> "BinaryMatrix":
        if not isinstance(obj, dict) or "n" not in obj or "rows" not in obj:
            raise ValueError("matrix JSON must have 'n' and 'rows' keys")
        n = obj["n"]
        if not is_int(n) or n < 1:
            raise ValueError(f"'n' must be a positive integer, got {n!r}")
        return cls.from_strings(obj["rows"], n)


def _permute_bits(x: int, mapping) -> int:
    """Permute a bit-packed vector: output bit mapping[j] = input bit j."""
    y = 0
    j = 0
    while x:
        if x & 1:
            y |= 1 << mapping[j]
        x >>= 1
        j += 1
    return y


def uniform_permutation(n: int, rng: random.Random) -> tuple[int, ...]:
    """One uniform draw from the n! permutations (Fisher-Yates over ``rng``),
    as its mapping: coordinate j goes to mapping[j]."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    idx = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.randint(0, i)
        idx[i], idx[j] = idx[j], idx[i]
    return tuple(idx)


def _weights(basis, n: int) -> list[int]:
    """The number of words of each weight 0..n in the row space of the
    independent ``basis``, walked in Gray-code order: step t adds basis[i],
    i the lowest set bit of t, which is the bit where the Gray codes of
    t - 1 and t differ."""
    counts = [1] + [0] * n
    word = 0
    for t in range(1, 1 << len(basis)):
        word ^= basis[(t & -t).bit_length() - 1]
        counts[word.bit_count()] += 1
    return counts


def _budgeted_bases(count: int, runs: str, *matrices: BinaryMatrix) -> list[tuple[int, ...]]:
    """The row-space bases of ``matrices``, once a run of ``count``
    instances of their summed rank r at their length n fits the one budget:
    count * (2^r + INSTANCE_WORDS + COORDINATE_WORDS * n) walked words, at
    most WORD_BUDGET.  Otherwise BudgetError, whose message names the run as
    ``runs``; every oracle checks this before it draws a permutation or
    walks a word.

    The basis walks stop once r passes log2 WORD_BUDGET, past which every
    run is refused, so a refusal costs O(k log2 WORD_BUDGET) row reductions
    and the r it names is at most log2 WORD_BUDGET + 1.
    """
    bases, rank = [], 0
    for G in matrices:
        bases.append(G.row_space_basis(WORD_BUDGET.bit_length() - 1 - rank))
        rank += len(bases[-1])
    n = matrices[0].n
    if count * ((1 << rank) + INSTANCE_WORDS + COORDINATE_WORDS * n) > WORD_BUDGET:
        raise BudgetError(
            f"{runs} x 2^{rank} codewords (+ {INSTANCE_WORDS} + {COORDINATE_WORDS} x {n}"
            f" words each) exceed the word budget (max {WORD_BUDGET})"
        )
    return bases


def exact_wef_bruteforce(G: BinaryMatrix) -> WeightEnumerator:
    """Exact spectrum of G's row space by enumerating its 2^rank codewords.

    Warns (RankDeficiencyWarning) when rows are dependent; the row space is
    then still counted once per codeword, so the mass is 2^rank.
    """
    (basis,) = _budgeted_bases(1, "1 code", G)
    if len(basis) < G.k:
        warnings.warn(
            f"rows are linearly dependent (rank {len(basis)} < k={G.k});"
            " counting the row space once",
            RankDeficiencyWarning,
            stacklevel=2,
        )
    return WeightEnumerator(G.n, _weights(basis, G.n))


def _length(G0: BinaryMatrix, G1: BinaryMatrix) -> int:
    """The components' common length n, which both oracles check first."""
    if G1.n != G0.n:
        raise ValueError(f"component lengths differ: {G0.n} vs {G1.n}")
    return G0.n


def _permutation_sums(G0: BinaryMatrix, G1: BinaryMatrix, count: int, runs: str, mappings):
    """Weight by weight, the sum and the sum of squares of the integer
    spectrum of {(u + v*perm, v)} over the ``count`` mappings that
    ``mappings`` yields; u ranges over rowspace(G0), v over rowspace(G1).
    Two lists of 2n + 1 integers.

    The budget of ``count`` instances of rank rank0 + rank1 is checked
    first (``_budgeted_bases``, the run named ``runs`` in its refusal).  The
    mappings are taken one at a time, so a lazy source draws each just
    before it is counted, and none before the check.
    """
    n = G0.n
    basis_u, basis_v = _budgeted_bases(count, runs, G0, G1)
    sums, sums_sq = [0] * (2 * n + 1), [0] * (2 * n + 1)
    for mapping in mappings:
        # One instance is the row space of [G0 0; G1*perm G1] in 2n-bit
        # words.  Its rows are independent: basis_u lies in the low n bits,
        # and each row built from basis_v carries that basis row in the high n.
        basis = [*basis_u, *(_permute_bits(v, mapping) | v << n for v in basis_v)]
        for w, c in enumerate(_weights(basis, 2 * n)):
            sums[w] += c
            sums_sq[w] += c * c
    return sums, sums_sq


def ensemble_wef_exhaustive(G0: BinaryMatrix, G1: BinaryMatrix) -> WeightEnumerator:
    """Average spectrum of {(u + v*perm, v)} over all n! permutations, exactly.

    u ranges over rowspace(G0), v over rowspace(G1).  The one counter,
    ``_permutation_sums``, is fed every permutation in lexicographic order.
    The result carries exact rational coefficients with denominator dividing
    n!.  n! is formed step by step and stops at the first product past
    WORD_BUDGET, which the budget then refuses, so a huge n costs no time.
    """
    n = _length(G0, G1)
    count = i = 1
    while i < n and count <= WORD_BUDGET:
        i += 1
        count *= i
    # count is i!, and i = n unless count passed the budget, which then
    # refuses the run: range(i), not range(n), which permutations would
    # turn into a tuple at once.
    mappings = itertools.permutations(range(i))
    sums, _ = _permutation_sums(G0, G1, count, f"{n}! permutations", mappings)
    return WeightEnumerator(2 * n, fractions_over(count, sums))


# spectrum: the mean WeightEnumerator; stderrs: a tuple of floats, one per weight.
MonteCarloEstimate = namedtuple("MonteCarloEstimate", ["spectrum", "stderrs"])


def ensemble_wef_montecarlo(
    G0: BinaryMatrix, G1: BinaryMatrix, samples: int, seed: int
) -> MonteCarloEstimate:
    """Mean spectrum over ``samples`` independent uniform permutations.

    The one counter, ``_permutation_sums``, is fed ``samples`` draws of
    ``uniform_permutation`` from ``random.Random(seed)``, each drawn just
    before it is counted, so the result is deterministic given ``seed`` (see
    the module notes on the pinned generator).  Per-weight standard errors
    are sample-std/sqrt(samples), with 0.0 reported when samples == 1.
    A run of samples * (2^(rank0+rank1) + INSTANCE_WORDS +
    COORDINATE_WORDS * n) walked words above WORD_BUDGET is refused before
    the first draw.
    """
    n = _length(G0, G1)
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = random.Random(seed)
    draws = (uniform_permutation(n, rng) for _ in range(samples))
    sums, sums_sq = _permutation_sums(G0, G1, samples, f"{samples} permutations", draws)
    # int / int rounds the exact quotient once, as float(Fraction) does.  With
    # one sample every numerator samples * sq - s * s is 0, so the scale's
    # factor samples - 1 is taken as 1 there.
    scale = samples * samples * max(samples - 1, 1)
    stderrs = tuple(math.sqrt((samples * sq - s * s) / scale) for s, sq in zip(sums, sums_sq))
    means = fractions_over(samples, sums)
    return MonteCarloEstimate(WeightEnumerator(2 * n, means), stderrs)


def _taylor_shift(coeffs: list[int], step) -> list[int]:
    """Coefficients of P(z + 1) (``step`` = add) or P(z - 1) (``step`` = sub)
    by Horner's rule: multiplying by (z +- 1) is one map over the partial
    result, so the shift costs about N^2/2 big-integer additions."""
    out = [coeffs[-1]]
    for c in reversed(coeffs[:-1]):
        out = [step(c, out[0]), *map(step, out, out[1:]), out[-1]]
    return out


def macwilliams(spectrum) -> tuple[int, list[int]]:
    """MacWilliams transform of the length-N spectrum ``(den, nums)``, whose
    coefficient A_w is nums[w] / den:
    B(y) = sum_w A_w (1 - y)^w (1 + y)^(N - w) / sum_w A_w.

    For a linear code this is the spectrum of its dual.  The transform is
    linear and normalised by the mass, so it applies to ensemble averages
    and to any rational sequence with a nonzero sum; the result may then
    have negative entries.  ``den`` cancels in the normalisation: B_j is
    out_j / sum(nums) for the integer numerators out_j, returned as
    ``(den', nums')`` with den' > 0 and gcd(den', *nums') = 1, so that it
    compares equal to the pair ``combine_int`` or ``ensemble_wef_int``
    gives for the same spectrum.  With P(y) = sum_w nums[w] y^w, the
    numerator is (1 + y)^N P(-1 + 2/(1 + y)): a Taylor shift by -1, the
    coefficient of y^w scaled by 2^w and the order reversed, then a Taylor
    shift by +1; O(N^2) big-integer additions.
    """
    _, nums = spectrum
    mass = sum(nums)
    if not mass:
        raise ValueError("the MacWilliams transform needs a nonzero sum of coefficients")
    shifted = _taylor_shift(nums, sub)
    scaled = [c << w for w, c in enumerate(shifted)]
    out = _taylor_shift(scaled[::-1], add)
    # g takes the sign of the mass, so that den' > 0.
    g = math.gcd(mass, *out) * (1 if mass > 0 else -1)
    return mass // g, [c // g for c in out]
