"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import functools
import math
import random
import time
import warnings
from fractions import Fraction

import pytest

from helpers import min_positive_weight, random_matrix, random_spectrum
from plotkin_wef import (
    BinaryMatrix,
    RankDeficiencyWarning,
    WeightEnumerator,
    combine,
    combine_single_weight,
    ensemble_wef,
    ensemble_wef_exhaustive,
    ensemble_wef_montecarlo,
    exact_wef_bruteforce,
    generator_matrix,
    rm_tree,
    tree_from_active_set,
)

MONTE_CARLO_SEED = 0


def report(number, description):
    def decorator(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number:02d}] FAIL - {description}")
                raise
            print(f"[criterion {number:02d}] PASS - {description}")

        return wrapper

    return decorator


@pytest.fixture(scope="module")
def random_component_pairs():
    """200 random component pairs with both evaluation routes precomputed."""
    rng = random.Random(0xC0DE)
    pairs = []
    started = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankDeficiencyWarning)
        for _ in range(200):
            n = rng.randint(2, 6)
            G0 = random_matrix(rng, n, rng.randint(0, 3))
            G1 = random_matrix(rng, n, rng.randint(0, 3))
            bf0 = exact_wef_bruteforce(G0)
            bf1 = exact_wef_bruteforce(G1)
            pairs.append((bf0, bf1, combine(bf0, bf1), ensemble_wef_exhaustive(G0, G1)))
    return pairs, time.perf_counter() - started


@report(1, "combine reproduces the worked [3,1,3] x [3,2,2] spectrum in <10ms")
def test_criterion_01_combine_golden():
    u = WeightEnumerator(3, (1, 0, 0, 1))
    v = WeightEnumerator(3, (1, 0, 3, 0))
    started = time.perf_counter()
    out = combine(u, v)
    elapsed = time.perf_counter() - started
    assert out == WeightEnumerator(6, (1, 0, 0, 4, 3, 0, 0))
    assert elapsed < 0.010, f"{elapsed * 1e3:.2f} ms"


@report(2, "depth-3 tree recursion reproduces the [8,4,4] spectrum in <10ms")
def test_criterion_02_tree_golden():
    tree = rm_tree(1, 3)
    started = time.perf_counter()
    out = ensemble_wef(tree)
    elapsed = time.perf_counter() - started
    assert out == WeightEnumerator(8, (1, 0, 0, 0, 14, 0, 0, 0, 1))
    assert elapsed < 0.010, f"{elapsed * 1e3:.2f} ms"


@report(3, "depth-4 tree spectra equal brute force over 2^5 and 2^11 codewords in <5s")
def test_criterion_03_extended_rm_checks():
    started = time.perf_counter()
    for r, m in ((1, 4), (2, 4)):
        tree = rm_tree(r, m)
        assert ensemble_wef(tree) == exact_wef_bruteforce(generator_matrix(tree)), (r, m)
    assert time.perf_counter() - started < 5.0


@report(4, "combine equals the all-permutation oracle on 200 random pairs in <60s")
def test_criterion_04_proof_equivalence(random_component_pairs):
    pairs, elapsed = random_component_pairs
    assert len(pairs) == 200
    for bf0, bf1, combined, exhaustive in pairs:
        assert combined == exhaustive
    assert elapsed < 60.0, f"{elapsed:.1f} s"


@report(5, "combined spectra vanish strictly below min(d_u, 2 d_v), with A_0 = 1")
def test_criterion_05_distance_consistency(random_component_pairs):
    pairs, _ = random_component_pairs
    for bf0, bf1, combined, _exhaustive in pairs:
        assert combined.coeffs[0] == 1
        d0 = min_positive_weight(bf0)
        d1 = min_positive_weight(bf1)
        cutoffs = [d for d in (d0, 2 * d1 if d1 is not None else None) if d is not None]
        cutoff = min(cutoffs) if cutoffs else combined.length + 1
        for w in range(1, cutoff):
            assert combined.coeffs[w] == 0


@report(6, "mass conservation on 100 random rational spectra, exact")
def test_criterion_06_mass_conservation():
    rng = random.Random(16180339)
    for _ in range(100):
        n = rng.randint(1, 10)
        u = random_spectrum(rng, n)
        v = random_spectrum(rng, n)
        assert sum(combine(u, v).coeffs) == sum(u.coeffs) * sum(v.coeffs)


@report(7, "rational regression: combine of [100] x [110] spectra, exact fractions")
def test_criterion_07_rational_regression():
    G0 = BinaryMatrix.from_strings(["100"])
    G1 = BinaryMatrix.from_strings(["110"])
    bf0 = exact_wef_bruteforce(G0)
    bf1 = exact_wef_bruteforce(G1)
    out = combine(bf0, bf1)
    # Frozen from the all-permutation oracle (criterion 4's route), which the
    # result must also equal term for term.
    expected = WeightEnumerator(6, (1, 1, 0, Fraction(2, 3), 1, Fraction(1, 3), 0))
    assert out == expected
    assert out == ensemble_wef_exhaustive(G0, G1)
    assert out.coeffs[3] == Fraction(2, 3)
    assert out.coeffs[5] == Fraction(1, 3)


@report(8, "single-weight queries equal full-combine coefficients on 50 instances")
def test_criterion_08_partial_evaluation():
    rng = random.Random(27182818)
    for _ in range(50):
        n = rng.randint(1, 8)
        u = random_spectrum(rng, n)
        v = random_spectrum(rng, n)
        full = combine(u, v)
        for w in range(2 * n + 1):
            assert combine_single_weight(u, v, w) == full.coeffs[w]


@report(9, "depth-8 tree spectrum <60s; single weights at n=1024 <5s each, exact")
def test_criterion_09_performance():
    rng = random.Random(99)
    tree = tree_from_active_set(8, rng.sample(range(256), 128))
    started = time.perf_counter()
    spectrum = ensemble_wef(tree)
    tree_elapsed = time.perf_counter() - started
    assert sum(spectrum.coeffs) == 2**128
    assert tree_elapsed < 60.0, f"{tree_elapsed:.1f} s"

    n = 1024
    full_space = WeightEnumerator(n, tuple(Fraction(math.comb(n, b)) for b in range(n + 1)))
    for w in (512, 1024, 1536):
        started = time.perf_counter()
        coeff = combine_single_weight(full_space, full_space, w)
        elapsed = time.perf_counter() - started
        assert coeff == math.comb(2048, w)
        assert elapsed < 5.0, f"w={w}: {elapsed:.1f} s"


@report(10, "6000-sample Monte Carlo lands within 3 stderr of the exact 2/3")
def test_criterion_10_monte_carlo():
    G0 = BinaryMatrix.from_strings(["100"])
    G1 = BinaryMatrix.from_strings(["110"])
    estimate, stderrs = ensemble_wef_montecarlo(
        G0, G1, samples=6000, seed=MONTE_CARLO_SEED
    )
    assert stderrs[3] > 0
    assert abs(float(estimate.coeffs[3] - Fraction(2, 3))) <= 3 * stderrs[3]
