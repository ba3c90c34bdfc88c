"""Ground-truth spectra by exhaustive enumeration and sampled interleavers.

Codewords are bit-packed integers: bit j (``1 << j``) is coordinate j, which
corresponds to the leftmost character of the JSON bit-string form.  Row spaces
are walked in Gray-code order so each step is one XOR and one popcount.

``macwilliams`` is an oracle of another kind: it checks a whole spectrum
against the spectrum of the dual ensemble (codetree.dual_tree), at any length.

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
from collections.abc import Iterator
from operator import add, sub

from .enumerator import Value, WeightEnumerator, common_denominator, fractions_over, is_int
from .errors import BudgetError, RankDeficiencyWarning

BRUTE_FORCE_MAX_DIMENSION = 24
EXHAUSTIVE_MAX_LENGTH = 7
EXHAUSTIVE_MAX_DIMENSION = 16
MONTE_CARLO_MAX_DIMENSION = 24


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

    def row_space_basis(self) -> tuple[int, ...]:
        """A basis of the row space (row echelon by leading bit)."""
        pivots: dict[int, int] = {}
        for row in self.rows:
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


class Permutation(Value):
    """A bijection on {0..n-1}; coordinate j of the input goes to mapping[j]."""

    __slots__ = _fields = ("mapping",)

    def __init__(self, mapping) -> None:
        mapping = tuple(mapping)
        if sorted(mapping) != list(range(len(mapping))):
            raise ValueError("mapping is not a bijection on 0..n-1")
        object.__setattr__(self, "mapping", mapping)

    @property
    def n(self) -> int:
        return len(self.mapping)

    def apply_bits(self, x: int) -> int:
        """Permute a bit-packed vector: output bit mapping[j] = input bit j."""
        return _permute_bits(x, self.mapping)


def _permute_bits(x: int, mapping) -> int:
    y = 0
    j = 0
    while x:
        if x & 1:
            y |= 1 << mapping[j]
        x >>= 1
        j += 1
    return y


def uniform_permutation(n: int, rng: random.Random) -> Permutation:
    """One uniform draw from the n! permutations (Fisher-Yates over ``rng``)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    idx = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.randint(0, i)
        idx[i], idx[j] = idx[j], idx[i]
    return Permutation(tuple(idx))


def _span(basis) -> Iterator[int]:
    """All 2^len(basis) words of the span, in Gray-code order."""
    word = 0
    yield word
    prev = 0
    for t in range(1, 1 << len(basis)):
        gray = t ^ (t >> 1)
        word ^= basis[(gray ^ prev).bit_length() - 1]
        prev = gray
        yield word


def _accumulate_span_weights(basis, start: int, bias: int, counts: list[int]) -> None:
    """Add 1 to counts[weight(c) + bias] for every c in start + span(basis)."""
    word = start
    counts[word.bit_count() + bias] += 1
    prev = 0
    for t in range(1, 1 << len(basis)):
        gray = t ^ (t >> 1)
        word ^= basis[(gray ^ prev).bit_length() - 1]
        prev = gray
        counts[word.bit_count() + bias] += 1


def exact_wef_bruteforce(G: BinaryMatrix) -> WeightEnumerator:
    """Exact spectrum of G's row space by enumerating its 2^rank codewords.

    Warns (RankDeficiencyWarning) when rows are dependent; the row space is
    then still counted once per codeword, so the mass is 2^rank.
    """
    if G.k > BRUTE_FORCE_MAX_DIMENSION:
        raise BudgetError(
            f"k={G.k} exceeds the 2^k enumeration budget"
            f" (max {BRUTE_FORCE_MAX_DIMENSION})"
        )
    basis = G.row_space_basis()
    if len(basis) < G.k:
        warnings.warn(
            f"rows are linearly dependent (rank {len(basis)} < k={G.k});"
            " counting the row space once",
            RankDeficiencyWarning,
            stacklevel=2,
        )
    counts = [0] * (G.n + 1)
    _accumulate_span_weights(basis, 0, 0, counts)
    return WeightEnumerator(G.n, counts)


def _instance_counts(basis_u, basis_v, perm_mapping, n: int) -> list[int]:
    """Integer spectrum of {(u + v*perm, v)} for one fixed permutation."""
    counts = [0] * (2 * n + 1)
    for v in _span(basis_v):
        pv = _permute_bits(v, perm_mapping)
        _accumulate_span_weights(basis_u, pv, v.bit_count(), counts)
    return counts


def ensemble_wef_exhaustive(G0: BinaryMatrix, G1: BinaryMatrix) -> WeightEnumerator:
    """Average spectrum of {(u + v*perm, v)} over all n! permutations, exactly.

    u ranges over rowspace(G0), v over rowspace(G1).  Permutations are walked
    in lexicographic order.  The result carries exact rational coefficients
    with denominator dividing n!.
    """
    n = G0.n
    if G1.n != n:
        raise ValueError(f"component lengths differ: {n} vs {G1.n}")
    if n > EXHAUSTIVE_MAX_LENGTH:
        raise BudgetError(
            f"n={n} exceeds the n! enumeration budget (max {EXHAUSTIVE_MAX_LENGTH})"
        )
    if G0.k + G1.k > EXHAUSTIVE_MAX_DIMENSION:
        raise BudgetError(
            f"k0+k1={G0.k + G1.k} exceeds the codeword budget"
            f" (max {EXHAUSTIVE_MAX_DIMENSION})"
        )
    basis_u = G0.row_space_basis()
    span_v = list(_span(G1.row_space_basis()))
    totals = [0] * (2 * n + 1)
    for perm in itertools.permutations(range(n)):
        for v in span_v:
            pv = _permute_bits(v, perm)
            _accumulate_span_weights(basis_u, pv, v.bit_count(), totals)
    return WeightEnumerator(2 * n, fractions_over(math.factorial(n), totals))


# spectrum: the mean WeightEnumerator; stderrs: a tuple of floats, one per weight.
MonteCarloEstimate = namedtuple("MonteCarloEstimate", ["spectrum", "stderrs"])


def ensemble_wef_montecarlo(
    G0: BinaryMatrix, G1: BinaryMatrix, samples: int, seed: int
) -> MonteCarloEstimate:
    """Mean spectrum over ``samples`` independent uniform permutations.

    Deterministic given ``seed`` (see the module notes on the pinned
    generator).  Per-weight standard errors are sample-std/sqrt(samples),
    with 0.0 reported when samples == 1.
    """
    n = G0.n
    if G1.n != n:
        raise ValueError(f"component lengths differ: {n} vs {G1.n}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if G0.k + G1.k > MONTE_CARLO_MAX_DIMENSION:
        raise BudgetError(
            f"k0+k1={G0.k + G1.k} exceeds the codeword budget"
            f" (max {MONTE_CARLO_MAX_DIMENSION})"
        )
    basis_u = G0.row_space_basis()
    basis_v = G1.row_space_basis()
    rng = random.Random(seed)
    sums = [0] * (2 * n + 1)
    sums_sq = [0] * (2 * n + 1)
    for _ in range(samples):
        perm = uniform_permutation(n, rng)
        counts = _instance_counts(basis_u, basis_v, perm.mapping, n)
        for w, c in enumerate(counts):
            if c:
                sums[w] += c
                sums_sq[w] += c * c
    means = fractions_over(samples, sums)
    if samples == 1:
        stderrs = (0.0,) * (2 * n + 1)
    else:
        # int / int rounds the exact quotient once, as float(Fraction) does.
        scale = samples * samples * (samples - 1)
        stderrs = tuple(
            math.sqrt((samples * sq - s * s) / scale) for s, sq in zip(sums, sums_sq)
        )
    return MonteCarloEstimate(WeightEnumerator(2 * n, means), stderrs)


def _taylor_shift(coeffs: list[int], step) -> list[int]:
    """Coefficients of P(z + 1) (``step`` = add) or P(z - 1) (``step`` = sub)
    by Horner's rule: multiplying by (z +- 1) is one map over the partial
    result, so the shift costs about N^2/2 big-integer additions."""
    out = [coeffs[-1]]
    for c in reversed(coeffs[:-1]):
        out = [step(c, out[0]), *map(step, out, out[1:]), out[-1]]
    return out


def macwilliams(coeffs) -> tuple[Fraction, ...]:
    """MacWilliams transform of the length-N spectrum A_0..A_N:
    B(y) = sum_w A_w (1 - y)^w (1 + y)^(N - w) / sum_w A_w.

    For a linear code this is the spectrum of its dual.  The transform is
    linear and normalised by the mass, so it applies to ensemble averages
    and to any rational sequence with a nonzero sum; the result may then
    have negative entries, hence plain Fractions rather than a
    WeightEnumerator.  With P(y) = sum_w A_w y^w, the numerator is
    (1 + y)^N P(-1 + 2/(1 + y)): a Taylor shift by -1, the coefficient of
    y^w scaled by 2^w and the order reversed, then a Taylor shift by +1,
    all on integer numerators; O(N^2) big-integer additions.
    """
    den, nums = common_denominator(coeffs)
    mass = sum(nums)
    if not mass:
        raise ValueError("the MacWilliams transform needs a nonzero sum of coefficients")
    shifted = _taylor_shift(nums, sub)
    scaled = [c << w for w, c in enumerate(shifted)]
    return fractions_over(mass, _taylor_shift(scaled[::-1], add))
