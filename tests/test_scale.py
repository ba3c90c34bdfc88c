"""The large checks: full spectra of length 2048 and 4096 against their
digests, peak-RSS gates and MacWilliams duals, a depth-16 polar-like and a
sparse depth-22 tree, length-1024 reader inputs, and the oracles at n = 7.
Every test here is ``slow``, so tier-1 deselects them; run them with

    PYTHONPATH=src python -m pytest tests -m slow --durations=0

Each CLI run is a fresh interpreter killed past its timeout
(``helpers.fresh_cli_run``), each long in-process check runs under
``helpers.time_limit``, and each peak-RSS gate measures a wrapper process
whose only child is the CLI (``helpers.cli_run_to_file``), which also
writes the bytes that each digest is taken of.
"""

import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

from helpers import N7_PAIR_ROWS, cli_run_to_file, fresh_cli_run, time_limit, write_json
from plotkin_wef import (
    BinaryMatrix,
    WeightEnumerator,
    active_leaves,
    combine_int,
    combine_single_weight,
    common_denominator,
    dual_tree,
    ensemble_wef,
    ensemble_wef_int,
    exact_wef_bruteforce,
    format_poly,
    macwilliams,
    min_distance_combine,
    plotkin_coefficient,
    rm_tree,
    tree_from_active_set,
    tree_from_json_dict,
)
from plotkin_wef.enumerator import spectrum_from_json

pytestmark = pytest.mark.slow


def run_cli(*argv: str, timeout: float = 30) -> str:
    """stdout of a CLI run, which must exit 0 within ``timeout`` seconds."""
    code, out, err = fresh_cli_run(*argv, timeout=timeout)
    assert code == 0, err
    return out


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_spectrum(path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))["spectrum"]


@pytest.fixture(scope="module")
def rm_5_11(tmp_path_factory):
    """The path of the full length-2048 RM(5, 11) record, and the peak RSS
    in MiB of the run that wrote it."""
    path = tmp_path_factory.mktemp("rm-5-11") / "rm-5-11.json"
    return path, cli_run_to_file(path, "rm", "5", "11", "--format", "json", timeout=120)


def test_rm_5_11_matches_its_digest_within_70_mib(rm_5_11):
    # Larger than anything the benchmark runs; the digest was recorded from
    # the per-weight Horner kernel, an independent evaluation of the same
    # sum.  The run peaks at about 54 MiB on Python 3.11, 25 MiB of it the
    # shared binomial table's half rows 0..1024; whole rows peaked at
    # 79-84 MiB on Python 3.10-3.13.
    path, peak_mib = rm_5_11
    assert sha256(path) == (
        "cdd81c306f6d50b0414743e8b834ee606fcb1de43cd118f79bc7faca21f4a491"
    )
    assert peak_mib <= 70


@pytest.mark.parametrize(("W", "terms"), [(255, 97), (500, 220)])
def test_rm_5_11_truncated_spectra_match_the_record(rm_5_11, W, terms):
    # Truncated plans (2k < n) against the full ones: --partial 255 combines
    # over truncated plans at n = 1024 and 512, --partial 500 over one at
    # n = 1024, on operands of thousands of bits.  --partial 64 would check
    # little: d(RM(5, 11)) = 64.
    out = run_cli("rm", "5", "11", "--partial", str(W), "--format", "json", timeout=60)
    full = read_spectrum(rm_5_11[0])["coeffs"]
    low = {w: text for w, text in full.items() if int(w) <= W}
    assert len(low) == terms
    assert json.loads(out)["spectrum"]["coeffs"] == low


def test_rm_5_11_poly_line_matches_the_library_rendering(rm_5_11):
    # The CLI renders the line from the record's integer-form texts, the
    # library from Fractions: 2049 coefficients over denominators of about
    # 7000 bits.
    line = run_cli("rm", "5", "11", timeout=120)
    spectrum = WeightEnumerator.from_json_dict(read_spectrum(rm_5_11[0]))
    assert line == format_poly(spectrum) + "\n"


def test_rm_5_11_single_weights_match_the_record(rm_5_11):
    # From the two length-1024 components: the windows w..w with w > n start
    # their binomial sums above weight 0.
    coeffs = read_spectrum(rm_5_11[0])["coeffs"]
    u, v = ensemble_wef(rm_tree(4, 10)), ensemble_wef(rm_tree(5, 10))
    weights = (32, 48, 512, 1024, 1536, 2016, 2048)
    got = {w: combine_single_weight(u, v, w) for w in weights}
    assert got == {w: Fraction(coeffs.get(str(w), "0")) for w in weights}


def test_rm_5_11_union_bound_matches_its_digest(rm_5_11, tmp_path):
    # bound parses and echoes all 2049 coefficients; those above the float
    # range take the log-domain branch of the bound's terms.
    argv = ("--rate", "1/2", "--ebn0", "3", "--truncate", "2048", "--format", "json")
    out = tmp_path / "bound-5-11.json"
    cli_run_to_file(out, "bound", str(rm_5_11[0]), *argv, timeout=30)
    assert sha256(out) == "715206bfee2b76a711a89db701f6028bdb27eba2865e4e3b65620d19f79a70a3"


def test_rm_5_11_equals_its_macwilliams_transform(rm_5_11):
    # RM(5, 11) is self-dual: all 2049 coefficients against mathematics.
    den, nums, _ = spectrum_from_json(read_spectrum(rm_5_11[0]))
    assert len(nums) == 2049
    assert macwilliams((den, nums)) == (den, nums)


def skewed_pair():
    # RM(5, 11) without leaf 2047: no all-ones word on the right spine, so
    # the root combine (n = 1024) is not mirrored and reads every binomial
    # row past its middle, from the stored half rows backwards.
    tree = tree_from_active_set(11, set(active_leaves(rm_tree(5, 11))) - {2047})
    return tree, dual_tree(tree)


def self_dual_pair():
    # One active leaf of each complementary pair (i, 2047 - i), leaf 2047
    # among them: seeded and unshared, with skewed children at every depth.
    n, rng = 2048, random.Random(11)
    active = [n - 1] + [rng.choice((i, n - 1 - i)) for i in range(1, n // 2)]
    tree = tree_from_active_set(11, active)
    assert dual_tree(tree) == tree
    return tree, tree


@pytest.mark.parametrize(
    "pair",
    [lambda: (rm_tree(4, 11), rm_tree(6, 11)), skewed_pair, self_dual_pair],
    ids=["rm-4-11", "skewed", "self-dual"],
)
def test_length_2048_dual_pairs_match_under_macwilliams(pair):
    # Each code is even, since its dual (for the skewed tree, the dual of
    # RM(5, 11), which holds it) holds the all-ones word.
    with time_limit(120):
        tree, dual = pair()
        low = ensemble_wef_int(tree, 2048)
        high = low if dual is tree else ensemble_wef_int(dual, 2048)
    assert len(low[1]) == 2049
    assert macwilliams(low) == high
    assert not any(low[1][1::2])


def test_length_1024_combine_commutes_with_macwilliams():
    # MacWilliams(combine(U, V)) == combine(MacWilliams(V), MacWilliams(U))
    # on one dense, skewed rational pair: both sides run unmirrored full
    # windows that read every binomial row past its middle.
    n = 512
    rng = random.Random(512)
    with time_limit(60):
        u, v = (
            common_denominator(
                [Fraction(rng.randint(1, 1000), rng.randint(1, 1000)) for _ in range(n + 1)]
            )
            for _ in "uv"
        )
        left = macwilliams(combine_int(n, u, v, 2 * n))
        assert left == combine_int(n, macwilliams(v), macwilliams(u), 2 * n)


def test_rm_6_12_matches_its_digest_within_300_mib(tmp_path):
    # The largest length the default guard lets through.  Its root combine
    # (n = 2048) alone reads the table's rows 1025..2048: the half rows
    # 0..2048 take 166 MiB, and the run peaks at about 247 MiB on Python
    # 3.11 (whole rows: 425 MiB).  The digest is the whole-row table's.
    path = tmp_path / "rm-6-12.json"
    peak_mib = cli_run_to_file(path, "rm", "6", "12", "--format", "json", timeout=180)
    assert sha256(path) == (
        "e6e0374048d2024265f887bed729abd1bbba454529d85fbe5b2debe3a6ce8a3e"
    )
    assert peak_mib <= 300


def test_sparse_depth_22_trees_run_in_time(tmp_path):
    # Building the tree and echoing its active set cost O(|active| * m), and
    # --emit-generator builds its rows once per distinct subtree: leaf i's
    # row has a 1 at every position whose bits are a subset of i's.
    n = 1 << 22
    flags = ("--partial", "2", "--max-length", str(n), "--format", "json")
    one = write_json(tmp_path / "one.json", {"m": 22, "active": [0]})
    out = run_cli("tree", one, *flags, timeout=10)
    assert json.loads(out)["spectrum"]["coeffs"] == {"0": "1", "1": "1"}
    two = write_json(tmp_path / "two.json", {"m": 22, "active": [0, 5]})
    out = run_cli("tree", two, "--emit-generator", *flags, timeout=10)
    assert json.loads(out)["generator"]["rows"] == ["1" + "0" * (n - 1), "110011" + "0" * (n - 6)]


def test_polar_like_depth_16_tree_matches_its_digest_and_children(tmp_path):
    # The half-rate tree whose active leaves are the upper half by
    # polarization weight, the sum of 2^(j/4) over the set bits j of the
    # index (in integers scaled by 2^64, so the ranking is exact; ties
    # broken by index).  Its weights <= 32 at length 65536 must equal the
    # literal sum over the children's windows and start at the distance of
    # the min_distance_combine recursion.
    m, W = 16, 32
    weight = [0]
    for b in (math.isqrt(math.isqrt(1 << (j + 256))) for j in range(m)):
        weight += [w + b for w in weight]
    ranked = sorted(range(1 << m), key=lambda i: (weight[i], i))
    spec = {"m": m, "active": sorted(ranked[1 << (m - 1):])}
    path = write_json(tmp_path / "polar-16.json", spec)
    argv = ("--partial", str(W), "--max-length", "65536", "--format", "json")
    out = tmp_path / "polar-16.out"
    cli_run_to_file(out, "tree", path, *argv, timeout=60)
    assert sha256(out) == "4a09847e1e1848850df38f537d8cc0358bd6f7468b159d94f2fefc2b0626b630"
    coeffs = read_spectrum(out)["coeffs"]
    memo = {}

    def distance(t):
        # The least positive weight of t's code, None for the zero code.
        if t not in memo:
            if t.length == 1:
                memo[t] = 1 if t.active else None
            else:
                d_u, d_v = distance(t.left), distance(t.right)
                if d_u is None or d_v is None:
                    memo[t] = d_u if d_v is None else 2 * d_v
                else:
                    memo[t] = min_distance_combine(d_u, d_v)
        return memo[t]

    with time_limit(60):
        tree = tree_from_json_dict(spec)
        n = tree.length // 2
        (du, u), (dv, v) = (ensemble_wef_int(child, W) for child in (tree.left, tree.right))
        bad = [
            w
            for w in range(W + 1)
            if Fraction(coeffs.get(str(w), "0"))
            != sum(
                plotkin_coefficient(n, w, b, c) * Fraction(u[w - 2 * c] * v[b], du * dv)
                for b in range(w + 1)
                for c in range(min(b, w - b) + 1)
            )
        ]
        assert bad == []
        assert min(int(w) for w in coeffs if int(w) > 0) == distance(tree)


def rational_texts(rng, n):
    # "p/q" texts over one q with small factors, so some numerators share
    # one with it and the group's gcd is not 1; one numerator zero-padded.
    q = 2**3 * 3**2 * 5 * 7 * 11 * 13 * (2**127 - 1)
    nums = [rng.randint(1, math.comb(n, w) * q) for w in range(n + 1)]
    assert any(math.gcd(p, q) > 1 for p in nums)
    coeffs = {str(w): f"{p}/{q}" for w, p in enumerate(nums)}
    coeffs["1"] = "00" + coeffs["1"]
    return coeffs


def plain_texts(rng, n):
    # Plain integers, zero-padded above and below weight 64, with zeros and
    # a "000": the reader converts a text only at a weight it keeps.
    coeffs = {str(w): str(rng.randint(1, math.comb(n, w))) for w in range(n + 1)}
    for w in (1, 40, 64, 65, 500, 1024):
        coeffs[str(w)] = "00" + coeffs[str(w)]
    for w, text in ((2, "0"), (63, "0"), (300, "0"), (7, "000"), (700, "000")):
        coeffs[str(w)] = text
    return coeffs


@pytest.mark.parametrize(("texts", "seed"), [(rational_texts, 16), (plain_texts, 37)])
def test_length_1024_inputs_echo_in_lowest_terms(tmp_path, texts, seed):
    # Each input's echo under --partial 64 is its nonzero weights' lowest
    # terms texts in weight order, the window is the full combine's
    # weights <= 64, and bound echoes the full record's spectrum.
    n, rng = 1024, random.Random(seed)
    given = {name: texts(rng, n) for name in ("u", "v")}
    paths = [
        write_json(tmp_path / f"{name}.json", {"n": n, "coeffs": c}) for name, c in given.items()
    ]
    partial = json.loads(run_cli("combine", *paths, "--partial", "64", "--format", "json"))
    full_path = tmp_path / "full.json"
    full_path.write_text(run_cli("combine", *paths, "--format", "json"), encoding="utf-8")
    full = read_spectrum(full_path)
    for name, coeffs in given.items():
        by_weight = sorted(coeffs.items(), key=lambda wt: int(wt[0]))
        want = [(w, str(Fraction(t))) for w, t in by_weight if Fraction(t)]
        assert list(partial["input"][name]["coeffs"].items()) == want
    low = {w: t for w, t in full["coeffs"].items() if int(w) <= 64}
    assert partial["spectrum"]["coeffs"] == low
    argv = ("--rate", "1/2", "--ebn0", "3", "--truncate", "64", "--format", "json")
    assert json.loads(run_cli("bound", str(full_path), *argv))["input"]["spectrum"] == full


@pytest.fixture
def oracle_pair(tmp_path):
    return [
        write_json(tmp_path / f"g{i}.json", {"n": 7, "rows": r}) for i, r in enumerate(N7_PAIR_ROWS)
    ]


def test_n7_exhaustive_oracle_equals_the_combine(tmp_path, oracle_pair):
    # Ranks 6 + 6, past tier-1's random pairs at n <= 6: 5040 permutations
    # of 2^12 codeword pairs against combine of the two brute-force spectra.
    spectra = []
    for i, rows in enumerate(N7_PAIR_ROWS):
        G = BinaryMatrix.from_strings(rows)
        assert G.rank() == 6
        spectra.append(write_json(tmp_path / f"bf{i}.json", exact_wef_bruteforce(G).to_json_dict()))
    oracle = run_cli("oracle", *oracle_pair, "--mode", "exhaustive", "--format", "json", timeout=60)
    combine = run_cli("combine", *spectra, "--format", "json")
    assert json.loads(oracle)["spectrum"] == json.loads(combine)["spectrum"]


def test_n7_montecarlo_oracle_matches_its_digest(tmp_path, oracle_pair):
    # Pins the seeded permutation stream and the summing path at n = 7.
    argv = ("--mode", "montecarlo", "--samples", "500", "--seed", "0", "--format", "json")
    out = tmp_path / "oracle-7-mc.json"
    cli_run_to_file(out, "oracle", *oracle_pair, *argv, timeout=30)
    assert sha256(out) == "c01fc47b34aafe44abb737ae3d2810dfa47cfe0ba8fc87d165187155f2073968"
