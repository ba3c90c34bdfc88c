"""Shared test utilities, independent of the package's own hot path."""

import contextlib
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from plotkin_wef import BinaryMatrix, WeightEnumerator


@contextlib.contextmanager
def any_int_digits():
    """Lift the int/str conversion limit for the test's own conversions."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def fresh_table_rows(*argv: str) -> int:
    """Rows in the shared binomial table after ``cli.main(argv)`` in a fresh
    interpreter; no argv runs the import alone."""
    code = (
        "import contextlib, io, sys\n"
        "from plotkin_wef.cli import main\n"
        "from plotkin_wef.combinatorics import shared_table\n"
        "if sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(sys.argv[1:]) == 0\n"
        "print(len(shared_table(0).rows))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


def literal_combine(u_enum: WeightEnumerator, v_enum: WeightEnumerator) -> WeightEnumerator:
    """Direct nested-sum evaluation of the interleaver average.

    Uses only math.comb and Fraction, so it shares nothing with the package's
    scaled-integer kernel.
    """
    n = u_enum.length
    out = []
    for w in range(2 * n + 1):
        acc = Fraction(0)
        for wv in range(max(0, w - n), min(w, n) + 1):
            for i in range(max(0, w - n), min(wv, w - wv) + 1):
                num = (
                    math.comb(n, w - wv)
                    * math.comb(w - wv, i)
                    * math.comb(n - w + wv, wv - i)
                )
                den = math.comb(n, wv) * math.comb(n, w - 2 * i)
                acc += Fraction(num, den) * v_enum.coeffs[wv] * u_enum.coeffs[w - 2 * i]
        out.append(acc)
    return WeightEnumerator(2 * n, tuple(out))


def random_spectrum(rng, n, max_num=8, max_den=6) -> WeightEnumerator:
    coeffs = [
        Fraction(rng.randint(0, max_num), rng.randint(1, max_den)) for _ in range(n + 1)
    ]
    return WeightEnumerator(n, tuple(coeffs))


def random_matrix(rng, n, k) -> BinaryMatrix:
    return BinaryMatrix(n, tuple(rng.randrange(1 << n) for _ in range(k)))


def random_full_rank_matrix(rng, n, k) -> BinaryMatrix:
    assert k <= n
    while True:
        m = random_matrix(rng, n, k)
        if m.rank() == k:
            return m


def stacked_identity_generator(G0: BinaryMatrix, G1: BinaryMatrix) -> BinaryMatrix:
    """Generator of the identity-permutation code {(u + v, v)}."""
    rows = list(G0.rows) + [g | (g << G1.n) for g in G1.rows]
    return BinaryMatrix(2 * G0.n, tuple(rows))
