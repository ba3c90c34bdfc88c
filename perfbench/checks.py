"""Output checks that do not trust the code under test.

Every job's output is checked against quantities the benchmark derives on
its own from the generated inputs:

* exact invariants: length, A_0, total mass (2^k for a tree), and the first
  and second weight moments sum_w w^i A_w, which follow in closed form from
  the inputs' moments because the overlap of a weight-j word and a randomly
  permuted weight-l word is hypergeometric;
* the minimum positive weight of a tree code, min(d_u, 2 d_v) recursively;
* the literal nested sum through ``plotkin_coefficient`` at sampled weights
  (combine jobs; every weight up to the cap when the reference is made);
* stored reference data: spectrum digests for every job of the default seed,
  digests of full ``rm r m`` spectra and low-weight prefixes of
  ``rm r m --partial`` spectra, which do not depend on the seed;
* the union bound recomputed in floating point from the checked spectrum.

None of this runs inside a timed region.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction

from workloads import min_distance


def read_spectrum(path: str) -> list[Fraction]:
    with open(path, encoding="utf-8") as fh:
        return parse_spectrum(json.load(fh))


def parse_spectrum(obj: dict) -> list[Fraction]:
    coeffs = [Fraction(0)] * (obj["n"] + 1)
    for w, c in obj["coeffs"].items():
        coeffs[int(w)] = Fraction(c)
    return coeffs


def spectrum_digest(obj: dict) -> str:
    canon = json.dumps({"n": obj["n"], "coeffs": obj["coeffs"]},
                       sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def moments(coeffs) -> tuple[Fraction, Fraction, Fraction]:
    """(sum A_w, sum w A_w, sum w^2 A_w)."""
    m0 = m1 = m2 = Fraction(0)
    for w, c in enumerate(coeffs):
        if c:
            m0 += c
            m1 += w * c
            m2 += w * w * c
    return m0, m1, m2


def combine_moments(a, b, n: int):
    """Moments of the interleaver average from the components' moments.

    A u-word of weight j and a v-word of weight l give output weight
    j + 2l - 2*O, where the overlap O is hypergeometric with mean jl/n and
    variance jl(n-j)(n-l)/(n^2 (n-1)); summing over the spectra leaves
    only the components' moments of order 0 to 2.
    """
    a0, a1, a2 = a
    b0, b1, b2 = b
    m0 = a0 * b0
    m1 = a1 * b0 + 2 * a0 * b1 - Fraction(2 * a1 * b1, n)
    m2 = (a2 * b0 + 4 * a1 * b1 + 4 * a0 * b2
          - Fraction(4 * (a2 * b1 + 2 * a1 * b2), n)
          + Fraction(4 * a2 * b2, n * n))
    if n > 1:
        m2 += Fraction(4 * (n * a1 - a2) * (n * b1 - b2), n * n * (n - 1))
    return m0, m1, m2


_LEAF_MOMENTS = {False: (Fraction(1), Fraction(0), Fraction(0)),
                 True: (Fraction(2), Fraction(1), Fraction(1))}


def tree_moments(m: int, mask: int):
    """Moments of the depth-m tree ensemble whose active leaves are ``mask``."""
    memo = {}

    def node(depth: int, sub: int):
        key = (depth, sub)
        if key not in memo:
            if depth == 0:
                memo[key] = _LEAF_MOMENTS[bool(sub)]
            else:
                half = 1 << (depth - 1)
                low = sub & ((1 << half) - 1)
                memo[key] = combine_moments(node(depth - 1, low),
                                            node(depth - 1, sub >> half), half)
        return memo[key]

    return node(m, mask)


def cells(n: int, w: int) -> int:
    """Cells (v-weight, overlap) of the literal nested sum for output weight w."""
    lo = max(0, w - n)
    return sum(max(0, min(wv, w - wv) - lo + 1) for wv in range(lo, min(w, n) + 1))


def literal_weight(u, v, n: int, w: int) -> Fraction:
    """Coefficient of x^w of the combine, as the literal nested sum."""
    from plotkin_wef.combinatorics import plotkin_coefficient

    lo = max(0, w - n)
    total = Fraction(0)
    for wv in range(lo, min(w, n) + 1):
        if not v[wv]:
            continue
        for i in range(lo, min(wv, w - wv) + 1):
            uu = u[w - 2 * i]
            if uu:
                total += v[wv] * uu * plotkin_coefficient(n, w, wv, i)
    return total


def union_bound(coeffs, truncate: int, rate: float, ebn0_db: float) -> float:
    gamma = 10.0 ** (ebn0_db / 10.0)
    return sum(
        float(coeffs[w]) * 0.5 * math.erfc(math.sqrt(w * rate * gamma))
        for w in range(1, truncate + 1) if coeffs[w]
    )


class Checker:
    """Checks job outputs; ``check`` returns a list of problems (empty: correct).

    ``digests`` maps job keys to spectrum digests (default seed only);
    ``reference`` holds the seed-independent rm data.  ``weights`` literal-sum
    weights are sampled per combine job among those with at most
    ``cell_cap`` cells.
    """

    def __init__(self, digests=None, reference=None, weights=3, cell_cap=300):
        self.digests = digests or {}
        self.rm_full = (reference or {}).get("rm_full", {})
        self.rm_prefix = (reference or {}).get("rm_prefix", {})
        self.weights = weights
        self.cell_cap = cell_cap

    def check(self, job, texts: list[str]) -> tuple[list[str], dict]:
        """Problems found, plus computed stats of the first output."""
        try:
            record = json.loads(texts[0])
            spectrum = record["spectrum"]
            out = parse_spectrum(spectrum)
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unreadable output: {exc!r}"], {}
        stats = {
            "coeff_bits": max((max(c.numerator.bit_length(), c.denominator.bit_length())
                               for c in out), default=0),
            "out_bytes": sum(len(t.encode()) for t in texts),
            "digest": spectrum_digest(spectrum),
        }
        problems = getattr(self, "_" + job.kind.replace("-", "_"))(job, record, out)
        if len(texts) > 1:
            problems += self._bound(job, out, texts[1])
        expected = self.digests.get(job.key)
        if expected is not None and stats["digest"] != expected:
            problems.append("spectrum digest differs from the reference")
        return problems, stats

    def _sampled_weights(self, job, n: int, top: int) -> list[int]:
        rng = random.Random(job.key)
        fit = [w for w in range(top + 1) if cells(n, w) <= self.cell_cap]
        return sorted(rng.sample(fit, min(self.weights, len(fit))))

    def _literal(self, job, out, n: int, top: int) -> list[str]:
        u, v = read_spectrum(job.check["u"]), read_spectrum(job.check["v"])
        problems = []
        if out[0] != u[0] * v[0]:
            problems.append("A_0 is not u_0 * v_0")
        for w in self._sampled_weights(job, n, top):
            if out[w] != literal_weight(u, v, n, w):
                problems.append(f"A_{w} differs from the literal sum")
        return problems, u, v

    def _combine(self, job, record, out):
        n = job.check["n"]
        if len(out) != 2 * n + 1:
            return [f"length {len(out) - 1}, expected {2 * n}"]
        problems, u, v = self._literal(job, out, n, 2 * n)
        if moments(out) != combine_moments(moments(u), moments(v), n):
            problems.append("mass or weight moments differ from the inputs'")
        return problems

    def _combine_partial(self, job, record, out):
        n, w = job.check["n"], job.check["w"]
        if len(out) != 2 * n + 1 or record.get("partial") != w:
            return ["wrong length or partial field"]
        if any(out[x] for x in range(w + 1, 2 * n + 1)):
            return [f"coefficients above the requested weight {w}"]
        problems, _, _ = self._literal(job, out, n, w)
        return problems

    def _tree(self, job, record, out):
        n, k = job.check["n"], job.check["k"]
        m, mask = job.tree
        if len(out) != n + 1 or record.get("dimension") != k:
            return ["wrong length or dimension"]
        problems = []
        if out[0] != 1:
            problems.append("A_0 != 1")
        if moments(out) != tree_moments(m, mask):
            problems.append("mass (2^k) or weight moments differ from the tree's")
        dmin = min_distance(m, mask)
        if record.get("min_positive_weight") != dmin or not out[dmin] or any(out[1:dmin]):
            problems.append(f"minimum positive weight is not {dmin}")
        return problems

    def _bound(self, job, out, bound_text: str) -> list[str]:
        try:
            value = json.loads(bound_text)["bound"]["value"]
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unreadable bound output: {exc!r}"]
        c = job.check
        want = union_bound(out, c["truncate"], c["k"] / c["n"], c["ebn0"])
        if not math.isclose(value, want, rel_tol=1e-9, abs_tol=1e-300):
            return [f"bound {value!r}, expected {want!r}"]
        return []

    def _rm(self, job, record, out):
        problems = self._tree(job, record, out)
        r, m = job.argv[1], job.argv[2]
        expected = self.rm_full.get(f"{r} {m}")
        if expected is not None and spectrum_digest(record["spectrum"]) != expected:
            problems.append("spectrum differs from the stored rm reference")
        return problems

    def _rm_partial(self, job, record, out):
        r, m, w = job.check["r"], job.check["m"], job.check["w"]
        if len(out) != (1 << m) + 1 or record.get("partial") != w:
            return ["wrong length or partial field"]
        problems = []
        if out[0] != 1:
            problems.append("A_0 != 1")
        if any(out[x] for x in range(w + 1, len(out))):
            problems.append(f"coefficients above the requested weight {w}")
        dmin = min_distance(m, job.tree[1])
        if any(out[1:min(dmin, w + 1)]) or (dmin <= w and not out[dmin]):
            problems.append(f"minimum positive weight is not {dmin}")
        prefix = self.rm_prefix.get(f"{r} {m}")
        if prefix is not None and out[: w + 1] != [Fraction(c) for c in prefix[: w + 1]]:
            problems.append("low weights differ from the stored rm reference")
        return problems
