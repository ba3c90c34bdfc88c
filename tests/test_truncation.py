"""The truncated path: weights <= W from the component weights <= W only."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import fresh_table_rows
from plotkin_wef import (
    WeightEnumerator,
    combine,
    combine_prefix,
    combine_single_weight,
    ensemble_wef,
    ensemble_wef_prefix,
    rm_tree,
    tree_from_active_set,
)
from plotkin_wef.cli import main

fractions = st.fractions(min_value=0, max_value=50, max_denominator=12)


@st.composite
def spectrum_pairs(draw):
    n = draw(st.integers(1, 12))
    u = draw(st.lists(fractions, min_size=n + 1, max_size=n + 1))
    v = draw(st.lists(fractions, min_size=n + 1, max_size=n + 1))
    return n, WeightEnumerator(n, tuple(u)), WeightEnumerator(n, tuple(v))


@settings(max_examples=80, deadline=None)
@given(spectrum_pairs(), st.data())
def test_prefix_equals_full_combine_prefix(pair, data):
    n, u, v = pair
    w_max = data.draw(st.integers(0, 2 * n + 2))
    got = combine_prefix(n, u.coeffs, v.coeffs, w_max)
    assert got == combine(u, v).coeffs[: w_max + 1]
    assert len(got) == min(w_max, 2 * n) + 1


@settings(max_examples=60, deadline=None)
@given(spectrum_pairs(), st.data())
def test_coefficients_above_the_cut_are_not_read(pair, data):
    n, u, v = pair
    w_max = data.draw(st.integers(0, 2 * n + 2))
    k = min(w_max, n)
    seed = data.draw(st.integers(0, 2**32))
    rng = random.Random(seed)

    def perturbed(enum):
        tail = tuple(Fraction(rng.randint(0, 99), rng.randint(1, 7)) for _ in range(n - k))
        return WeightEnumerator(n, enum.coeffs[: k + 1] + tail)

    u2, v2 = perturbed(u), perturbed(v)
    expected = combine_prefix(n, u.coeffs, v.coeffs, w_max)
    assert combine_prefix(n, u2.coeffs, v2.coeffs, w_max) == expected
    assert combine_prefix(n, u.coeffs[: k + 1], v.coeffs[: k + 1], w_max) == expected
    w = min(w_max, 2 * n)
    assert combine_single_weight(u2, v2, w) == combine_single_weight(u, v, w)


def test_prefix_rejects_short_or_negative_input():
    one = (Fraction(1), Fraction(1))
    with pytest.raises(ValueError):
        combine_prefix(1, one, one, -1)
    with pytest.raises(ValueError):
        combine_prefix(2, one, one, 2)
    with pytest.raises(ValueError):
        combine_prefix(0, one[:1], one[:1], 0)
    with pytest.raises(ValueError):
        ensemble_wef_prefix(rm_tree(1, 2), -1)


@pytest.mark.parametrize("m", range(9))
def test_rm_prefix_matches_full_spectrum(m):
    for r in range(-1, m + 1):
        tree = rm_tree(r, m)
        full = ensemble_wef(tree).coeffs
        for w_max in sorted({0, 3, 8, 1 << m}):
            assert ensemble_wef_prefix(tree, w_max) == full[: w_max + 1], (r, m, w_max)


def test_random_tree_prefix_matches_full_spectrum():
    rng = random.Random(20250828)
    for _ in range(20):
        m = rng.randint(0, 6)
        active = [i for i in range(1 << m) if rng.random() < rng.random()]
        tree = tree_from_active_set(m, active)
        full = ensemble_wef(tree).coeffs
        for w_max in (0, 1, 3, 8, 1 << m, (1 << m) + 5):
            assert ensemble_wef_prefix(tree, w_max) == full[: w_max + 1]


def cli_json(capsys, *argv):
    assert main([*argv, "--format", "json"]) == 0
    return capsys.readouterr().out


def expected_partial(full_out: str, w_max: int, dimension) -> str:
    """The full record cut to weights <= w_max, as --partial prints it."""
    record = json.loads(full_out)
    coeffs = {w: c for w, c in record["spectrum"]["coeffs"].items() if int(w) <= w_max}
    record["spectrum"]["coeffs"] = coeffs
    record["partial"] = w_max
    record["dimension"] = dimension
    record["min_positive_weight"] = min((int(w) for w in coeffs if int(w) > 0), default=None)
    return json.dumps(record, indent=2) + "\n"


@pytest.mark.parametrize("r, m", [(0, 1), (1, 3), (2, 4), (3, 5), (2, 6)])
def test_cli_rm_partial_is_the_full_prefix(capsys, r, m):
    full = cli_json(capsys, "rm", str(r), str(m))
    length = 1 << m
    for w_max in (0, length // 2, length):
        part = cli_json(capsys, "rm", str(r), str(m), "--partial", str(w_max))
        assert part == expected_partial(full, w_max, json.loads(full)["dimension"])


@pytest.mark.parametrize("n", [1, 4, 9])
def test_cli_combine_partial_is_the_full_prefix(capsys, tmp_path, n):
    rng = random.Random(n)
    paths = []
    for name in ("u", "v"):
        coeffs = {str(j): f"{rng.randint(0, 9)}/{rng.randint(1, 4)}" for j in range(n + 1)}
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"n": n, "coeffs": coeffs}), encoding="utf-8")
        paths.append(str(path))
    full = cli_json(capsys, "combine", *paths)
    for w_max in (0, n, 2 * n):
        part = cli_json(capsys, "combine", *paths, "--partial", str(w_max))
        assert part == expected_partial(full, w_max, None)


def test_partial_rm_does_not_grow_the_binomial_table():
    # rm(2, 12) --partial 8 makes truncated plans (2k < n) at n = 32..2048,
    # which hold their own rows; only its full plans at n <= 16 read the
    # shared table, so the table ends at rows 0..16, not 0..2048.
    assert fresh_table_rows("rm", "2", "12", "--partial", "8") == 17
