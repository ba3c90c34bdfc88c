import random
import warnings
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import random_matrix
from plotkin_wef import (
    BinaryMatrix,
    BudgetError,
    Permutation,
    RankDeficiencyWarning,
    WeightEnumerator,
    combine,
    ensemble_wef_exhaustive,
    ensemble_wef_montecarlo,
    exact_wef_bruteforce,
    parse_poly,
    uniform_permutation,
)

G_REP3 = BinaryMatrix.from_strings(["111"])
G_SPC3 = BinaryMatrix.from_strings(["110", "011"])
G_100 = BinaryMatrix.from_strings(["100"])
G_110 = BinaryMatrix.from_strings(["110"])


class TestBinaryMatrix:
    def test_string_round_trip(self):
        m = BinaryMatrix.from_strings(["0110", "1001"])
        assert m.n == 4 and m.k == 2
        assert m.to_strings() == ["0110", "1001"]
        assert m.rows == (0b0110, 0b1001)

    def test_leftmost_character_is_coordinate_zero(self):
        m = BinaryMatrix.from_strings(["100"])
        assert m.rows == (1,)

    def test_validation(self):
        with pytest.raises(ValueError):
            BinaryMatrix.from_strings(["012"])
        with pytest.raises(ValueError):
            BinaryMatrix.from_strings(["01", "011"])
        with pytest.raises(ValueError):
            BinaryMatrix(2, (4,))
        with pytest.raises(ValueError):
            BinaryMatrix(0, ())
        with pytest.raises(ValueError):
            BinaryMatrix.from_strings([])

    @pytest.mark.parametrize(
        "rows, bad",
        [
            (["0110", ["0", "1", "2", "0"], "011"], ["0", "1", "2", "0"]),
            ([["0", "1", "1", "0"], "011", "01x0"], "011"),
            ([["0", "1", "1", "0"], "01x0", ["0", "1"]], "01x0"),
        ],
    )
    def test_the_error_names_the_first_bad_row_of_mixed_rows(self, rows, bad):
        # Rows given as text and as arrays of "0"/"1" strings in one matrix:
        # a bad character or a too-short row, whichever comes first.
        message = f"bad row {bad!r}: need 4 characters from 0/1"
        with pytest.raises(ValueError) as excinfo:
            BinaryMatrix.from_strings(rows, 4)
        assert str(excinfo.value) == message

    @given(
        st.integers(1, 300).flatmap(
            lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=4))
        )
    )
    def test_rows_match_a_per_bit_reference(self, case):
        n, rows = case
        m = BinaryMatrix(n, rows)
        texts = ["".join("1" if row >> j & 1 else "0" for j in range(n)) for row in rows]
        assert m.to_strings() == texts
        assert BinaryMatrix.from_strings(texts, n) == m
        # A row may also be given as a JSON array of "0"/"1" strings.
        listed = BinaryMatrix.from_json_dict({"n": n, "rows": [list(t) for t in texts]})
        assert listed == m
        assert listed.to_json_dict() == {"n": n, "rows": texts}

    def test_empty_matrix_needs_explicit_n(self):
        m = BinaryMatrix.from_strings([], n=3)
        assert m.n == 3 and m.k == 0

    def test_rank(self):
        assert BinaryMatrix.from_strings(["110", "011", "101"]).rank() == 2
        assert G_SPC3.rank() == 2
        assert BinaryMatrix(3, ()).rank() == 0

    def test_json_round_trip(self):
        obj = G_SPC3.to_json_dict()
        assert obj == {"n": 3, "rows": ["110", "011"]}
        assert BinaryMatrix.from_json_dict(obj) == G_SPC3
        with pytest.raises(ValueError):
            BinaryMatrix.from_json_dict({"rows": []})
        with pytest.raises(ValueError):
            BinaryMatrix.from_json_dict({"n": 0, "rows": []})


class TestPermutation:
    def test_bijection_required(self):
        with pytest.raises(ValueError):
            Permutation((0, 0, 2))
        with pytest.raises(ValueError):
            Permutation((1, 2, 3))

    def test_apply_bits(self):
        perm = Permutation((2, 0, 1))
        # coordinate j of the input moves to mapping[j]
        assert perm.apply_bits(0b001) == 0b100
        assert perm.apply_bits(0b011) == 0b101
        assert perm.apply_bits(0b111) == 0b111
        assert perm.n == 3


class TestUniformPermutation:
    def test_n1_is_identity(self):
        assert uniform_permutation(1, random.Random(7)).mapping == (0,)

    def test_pinned_draw(self):
        # Reproducibility contract: Mersenne Twister + the Fisher-Yates loop.
        assert uniform_permutation(3, random.Random(42)).mapping == (1, 0, 2)

    def test_rejects_n_zero(self):
        with pytest.raises(ValueError):
            uniform_permutation(0, random.Random(1))

    def test_chi_square_uniformity(self):
        from scipy.stats import chisquare

        rng = random.Random(12345)
        counts = Counter(
            uniform_permutation(3, rng).mapping for _ in range(60000)
        )
        assert len(counts) == 6
        result = chisquare([counts[key] for key in sorted(counts)])
        assert result.pvalue > 0.001


class TestBruteForce:
    def test_examples(self):
        assert exact_wef_bruteforce(G_REP3) == parse_poly("1 + x^3", 3)
        assert exact_wef_bruteforce(G_SPC3) == parse_poly("1 + 3x^2", 3)

    def test_mass_is_two_to_rank(self):
        rng = random.Random(88)
        for _ in range(30):
            n = rng.randint(1, 8)
            G = random_matrix(rng, n, rng.randint(0, 5))
            if G.rank() < G.k:
                with pytest.warns(RankDeficiencyWarning):
                    enum = exact_wef_bruteforce(G)
            else:
                enum = exact_wef_bruteforce(G)
            assert sum(enum.coeffs) == 2 ** G.rank()
            assert enum.coeffs[0] == 1

    def test_rank_deficiency_warns(self):
        G = BinaryMatrix.from_strings(["110", "011", "101"])
        with pytest.warns(RankDeficiencyWarning):
            enum = exact_wef_bruteforce(G)
        assert sum(enum.coeffs) == 4

    def test_budget(self):
        with pytest.raises(BudgetError):
            exact_wef_bruteforce(BinaryMatrix(30, tuple(1 << i for i in range(25))))


class TestExhaustiveEnsemble:
    def test_permutation_invariant_components_give_specific_code(self):
        assert ensemble_wef_exhaustive(G_REP3, G_SPC3) == parse_poly(
            "1 + 4x^3 + 3x^4", 6
        )

    def test_rational_instance(self):
        # All 6 permutations of {(u + v*perm, v)} with u-code 100, v-code 110:
        # weights 0 and 1 always, weight 3 for 4 of 6 draws, 4 always, 5 for 2.
        expected = WeightEnumerator(6, (1, 1, 0, Fraction(2, 3), 1, Fraction(1, 3), 0))
        assert ensemble_wef_exhaustive(G_100, G_110) == expected

    def test_zero_v_code_pads_u_spectrum(self):
        out = ensemble_wef_exhaustive(G_REP3, BinaryMatrix(3, ()))
        assert out == parse_poly("1 + x^3", 6)

    def test_matches_combine_of_bruteforce_spectra(self):
        rng = random.Random(424242)
        for _ in range(30):
            n = rng.randint(2, 6)
            G0 = random_matrix(rng, n, rng.randint(0, 3))
            G1 = random_matrix(rng, n, rng.randint(0, 3))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RankDeficiencyWarning)
                bf0 = exact_wef_bruteforce(G0)
                bf1 = exact_wef_bruteforce(G1)
            assert ensemble_wef_exhaustive(G0, G1) == combine(bf0, bf1)

    def test_invariant_under_v_column_permutation(self):
        rng = random.Random(9)
        perm = Permutation((3, 1, 4, 0, 2))
        for _ in range(10):
            G0 = random_matrix(rng, 5, 2)
            G1 = random_matrix(rng, 5, 2)
            permuted = BinaryMatrix(5, tuple(perm.apply_bits(r) for r in G1.rows))
            assert ensemble_wef_exhaustive(G0, G1) == ensemble_wef_exhaustive(
                G0, permuted
            )

    def test_budgets(self):
        with pytest.raises(BudgetError):
            ensemble_wef_exhaustive(BinaryMatrix(8, ()), BinaryMatrix(8, ()))
        with pytest.raises(BudgetError):
            ensemble_wef_exhaustive(
                BinaryMatrix(4, (1,) * 9), BinaryMatrix(4, (1,) * 8)
            )

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            ensemble_wef_exhaustive(G_REP3, BinaryMatrix(4, ()))


class TestMonteCarlo:
    def test_invariant_components_give_exact_spectrum_any_seed(self):
        for seed in (0, 1, 999):
            est, errs = ensemble_wef_montecarlo(G_REP3, G_SPC3, samples=10, seed=seed)
            assert est == parse_poly("1 + 4x^3 + 3x^4", 6)
            assert all(e == 0.0 for e in errs)

    def test_single_sample_with_zero_v_code_is_exact(self):
        est, errs = ensemble_wef_montecarlo(
            G_REP3, BinaryMatrix(3, ()), samples=1, seed=5
        )
        assert est == parse_poly("1 + x^3", 6)
        assert all(e == 0.0 for e in errs)

    def test_three_sigma_agreement_on_rational_instance(self):
        est, errs = ensemble_wef_montecarlo(G_100, G_110, samples=6000, seed=0)
        assert abs(float(est.coeffs[3] - Fraction(2, 3))) <= 3 * errs[3]
        assert errs[3] > 0

    def test_deterministic_given_seed(self):
        a = ensemble_wef_montecarlo(G_100, G_110, samples=50, seed=31)
        b = ensemble_wef_montecarlo(G_100, G_110, samples=50, seed=31)
        assert a == b

    def test_budgets(self):
        with pytest.raises(ValueError):
            ensemble_wef_montecarlo(G_100, G_110, samples=0, seed=1)
        with pytest.raises(BudgetError):
            ensemble_wef_montecarlo(
                BinaryMatrix(5, (1,) * 13), BinaryMatrix(5, (1,) * 12), 1, 1
            )


@pytest.mark.slow
def test_montecarlo_three_sigma_coverage_study():
    """One-off study: nearly all seeds land within 3 stderr of the exact 2/3."""
    hits = 0
    for seed in range(100):
        est, errs = ensemble_wef_montecarlo(G_100, G_110, samples=6000, seed=seed)
        if abs(float(est.coeffs[3] - Fraction(2, 3))) <= 3 * errs[3]:
            hits += 1
    assert hits >= 95
