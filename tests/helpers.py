"""Shared test utilities, independent of the package's own hot path."""

import contextlib
import json
import math
import os
import signal
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from plotkin_wef import BinaryMatrix, WeightEnumerator, oracle


@contextlib.contextmanager
def any_int_digits():
    """Lift the int/str conversion limit for the test's own conversions."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


@contextlib.contextmanager
def time_limit(seconds: int):
    """Fail the block with TimeoutError once it has run ``seconds`` seconds
    (SIGALRM, so in the main thread only): the in-process counterpart of
    ``fresh_cli_run``'s timeout."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _fresh_python(code: str, *args: str, flags: tuple[str, ...] = (), timeout: float = 120) -> str:
    """stdout of ``code`` run with ``args`` in a fresh interpreter that
    imports the package from this checkout's sources."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code, *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def write_json(path, obj) -> str:
    """Write ``obj`` as JSON to the pathlib ``path``; its text, for argv."""
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def fresh_cli_run(*argv: str, timeout: float = 30) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of the CLI in a fresh interpreter.  One
    still running after ``timeout`` seconds is killed and fails the test,
    where a call in the test's own process would hang it."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "plotkin_wef.cli", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    return proc.returncode, proc.stdout, proc.stderr


def cli_run_to_file(out_path, *argv: str, timeout: float) -> float:
    """Run the CLI with ``argv``, its stdout written byte for byte to
    ``out_path``, and return its peak RSS in MiB.  The CLI is the only child
    of a wrapper process, since RUSAGE_CHILDREN is the maximum over every
    child its caller has reaped; a run past ``timeout`` seconds is killed
    and fails the test."""
    code = (
        "import resource, subprocess, sys\n"
        "with open(sys.argv[1], 'wb') as out:\n"
        "    argv = [sys.executable, '-m', 'plotkin_wef.cli', *sys.argv[3:]]\n"
        "    subprocess.run(argv, stdout=out, check=True, timeout=float(sys.argv[2]))\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)\n"
    )
    return float(_fresh_python(code, str(out_path), str(timeout), *argv, timeout=timeout + 30))


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
    return int(_fresh_python(code, *argv))


def fresh_modules(code: str) -> set[str]:
    """The modules that running ``code`` loads in a fresh interpreter.

    -S: the site module of some installations imports modules of its own,
    typing among them.
    """
    wrapped = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    return set(_fresh_python(wrapped, flags=("-S",)).split())


def fresh_cli_modules(*argv: str) -> tuple[str, set[str]]:
    """stdout of ``cli.main(argv)`` in a fresh interpreter, and the modules
    that the CLI's import and the call load (``fresh_modules``)."""
    code = (
        "import contextlib, io, json, sys\n"
        "before = set(sys.modules)\n"
        "from plotkin_wef.cli import main\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    assert main(sys.argv[1:]) == 0\n"
        "print(json.dumps([out.getvalue(), sorted(set(sys.modules) - before)]))\n"
    )
    out, modules = json.loads(_fresh_python(code, *argv, flags=("-S",)))
    return out, set(modules)


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


def min_positive_weight(enum: WeightEnumerator) -> int | None:
    """Smallest w > 0 with a nonzero coefficient, or None if there is none."""
    return next((w for w, c in enumerate(enum.coeffs) if w and c), None)


def random_spectrum(rng, n, max_num=8, max_den=6) -> WeightEnumerator:
    coeffs = [
        Fraction(rng.randint(0, max_num), rng.randint(1, max_den)) for _ in range(n + 1)
    ]
    return WeightEnumerator(n, tuple(coeffs))


# Generator rows of a pair of ranks 6 + 6 at n = 7, which the oracles'
# budget tests and test_scale's n = 7 oracle checks share.
N7_PAIR_ROWS = (
    ("1000001", "0100011", "0010010", "0001110", "0000101", "1111000"),
    ("1100101", "0110011", "1011000", "0101110", "1110001", "0010111"),
)


def random_matrix(rng, n, k) -> BinaryMatrix:
    return BinaryMatrix(n, tuple(rng.randrange(1 << n) for _ in range(k)))


def random_full_rank_matrix(rng, n, k) -> BinaryMatrix:
    assert k <= n
    while True:
        m = random_matrix(rng, n, k)
        if m.rank() == k:
            return m


def stacked_identity_generator(G0: BinaryMatrix, G1: BinaryMatrix, mapping=None) -> BinaryMatrix:
    """Generator [G0 0; G1*perm G1] of the code {(u + v*perm, v)}: rows
    [g0 | 0] and [perm(g1) | g1], where coordinate j of g1 goes to
    mapping[j].  Without a mapping, the identity-permutation code
    {(u + v, v)}."""
    n = G1.n
    mapping = range(n) if mapping is None else mapping

    def permuted(g):
        return sum(1 << mapping[j] for j in range(n) if g >> j & 1)

    rows = list(G0.rows) + [permuted(g) | (g << n) for g in G1.rows]
    return BinaryMatrix(2 * G0.n, tuple(rows))


class Walked(Exception):
    """Raised by the stand-in walk of ``stop_at_the_walk``; its argument is
    the rank of the instance that reached the walk."""


def stop_at_the_walk(monkeypatch):
    """Make the oracles' first word walk raise Walked: a run that raises it
    was admitted by the word budget, at no cost past its first instance."""

    def walk(basis, n):
        raise Walked(len(basis))

    monkeypatch.setattr(oracle, "_weights", walk)
