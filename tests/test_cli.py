import json
import math
import sys
import time
from fractions import Fraction

import pytest

from helpers import (
    N7_PAIR_ROWS,
    Walked,
    any_int_digits,
    fresh_cli_modules,
    fresh_cli_run,
    stop_at_the_walk,
    write_json,
)
from plotkin_wef import (
    BinaryMatrix,
    WeightEnumerator,
    combine,
    format_poly,
    truncated_union_bound,
)
from plotkin_wef import cli
from plotkin_wef.bounds import ChannelPoint
from plotkin_wef.cli import main
from plotkin_wef.enumerator import common_denominator


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_units(path, n, k):
    """A matrix file of the first k unit vectors of length n: rank k."""
    return write_json(path, {"n": n, "rows": ["0" * i + "1" + "0" * (n - 1 - i) for i in range(k)]})


def write_record(capsys, path, *argv):
    """Write the JSON record of one CLI call to ``path``."""
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0, err
    path.write_text(out, encoding="utf-8")
    return str(path)


def refuse_parsing(obj):
    raise AssertionError("spectrum parsed before the length guard")


@pytest.fixture
def ex1_files(tmp_path):
    u = write_json(tmp_path / "u.json", {"n": 3, "coeffs": {"0": "1", "3": "1"}})
    v = write_json(tmp_path / "v.json", {"n": 3, "coeffs": {"0": "1", "2": "3"}})
    return u, v


@pytest.fixture
def derived_matrix_files(tmp_path):
    g0 = write_json(tmp_path / "g0.json", {"n": 3, "rows": ["100"]})
    g1 = write_json(tmp_path / "g1.json", {"n": 3, "rows": ["110"]})
    return g0, g1


class TestRm:
    def test_poly_examples(self, capsys):
        assert run(capsys, "rm", "1", "3", "--format", "poly")[1] == "1 + 14x^4 + x^8\n"
        assert run(capsys, "rm", "0", "3")[1] == "1 + x^8\n"
        assert (
            run(capsys, "rm", "2", "4")[1]
            == "1 + 140x^4 + 448x^6 + 870x^8 + 448x^10 + 140x^12 + x^16\n"
        )

    def test_json_record_fields(self, capsys):
        code, out, _ = run(capsys, "rm", "1", "3", "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["command"] == "rm"
        assert record["input"] == {"rm": {"r": 1, "m": 3}}
        assert record["length"] == 8
        assert record["dimension"] == 4
        assert record["min_positive_weight"] == 4
        assert record["spectrum"] == {
            "n": 8,
            "coeffs": {"0": "1", "4": "14", "8": "1"},
        }

    def test_json_stdout_is_byte_identical(self, capsys):
        first = run(capsys, "rm", "2", "4", "--format", "json")
        second = run(capsys, "rm", "2", "4", "--format", "json")
        assert first[1] == second[1]

    def test_partial_truncates_spectrum(self, capsys):
        code, out, _ = run(capsys, "rm", "1", "3", "--partial", "4", "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["partial"] == 4
        assert record["spectrum"]["coeffs"] == {"0": "1", "4": "14"}

    def test_partial_matches_full_prefix(self, capsys):
        full = json.loads(run(capsys, "rm", "2", "4", "--format", "json")[1])
        part = json.loads(
            run(capsys, "rm", "2", "4", "--partial", "6", "--format", "json")[1]
        )
        expected = {w: c for w, c in full["spectrum"]["coeffs"].items() if int(w) <= 6}
        assert part["spectrum"]["coeffs"] == expected

    def test_depth_guard_exit_3(self, capsys):
        code, _, err = run(capsys, "rm", "2", "13")
        assert code == 3
        assert "exceeds" in err

    def test_depth_refusals_name_the_length_and_the_guard(self, capsys, tmp_path, monkeypatch):
        # A length past 2^64 and past the guard's bits is named as a power,
        # so 2^m is never built; a smaller one is written out.
        monkeypatch.delenv("PLOTKIN_WEF_MAX_LENGTH", raising=False)
        advice = "; raise --max-length or PLOTKIN_WEF_MAX_LENGTH if intended\n"
        path = write_json(tmp_path / "t.json", {"m": 5, "active": [0, 31]})
        for argv, refusal in (
            (("rm", "2", "13"), "error: length 8192 exceeds the guard (4096)"),
            (("rm", "2", "70"), "error: length 2^70 exceeds the guard (4096)"),
            (("tree", path, "--max-length", "16"), "error: length 32 exceeds the guard (16)"),
        ):
            assert run(capsys, *argv) == (3, "", refusal + advice), argv

    def test_negative_depth_exit_2(self, capsys):
        code, out, err = run(capsys, "rm", "2", "-1")
        assert code == 2
        assert out == ""
        assert err == "error: m must be >= 0, got -1\n"

    def test_max_length_flag_and_env(self, capsys, monkeypatch):
        assert run(capsys, "rm", "0", "5", "--max-length", "16")[0] == 3
        assert run(capsys, "rm", "0", "5", "--max-length", "32")[0] == 0
        monkeypatch.setenv("PLOTKIN_WEF_MAX_LENGTH", "16")
        assert run(capsys, "rm", "0", "5")[0] == 3
        monkeypatch.setenv("PLOTKIN_WEF_MAX_LENGTH", "32")
        assert run(capsys, "rm", "0", "5")[0] == 0
        monkeypatch.setenv("PLOTKIN_WEF_MAX_LENGTH", "twelve")
        assert run(capsys, "rm", "0", "3")[0] == 2

    def test_depth_beyond_recursion_limit_exit_3(self, capsys):
        code, out, err = run(capsys, "rm", "1", "3000", "--max-length", str(10**1000))
        assert code == 3
        assert out == ""
        assert err.startswith("error: too deep")
        assert "Traceback" not in err

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "rm", "1", "3", "--format", "csv")
        assert out.splitlines() == ["weight,coefficient", "0,1", "4,14", "8,1"]

    def test_timing_goes_to_stderr_not_stdout(self, capsys):
        code, out, err = run(capsys, "rm", "1", "3", "--format", "json")
        assert "elapsed" not in out
        assert "elapsed" in err


class TestCombine:
    def test_golden(self, capsys, ex1_files):
        code, out, _ = run(capsys, "combine", *ex1_files)
        assert code == 0
        assert out == "1 + 4x^3 + 3x^4\n"

    def test_identity_v_code_echoes_u(self, capsys, tmp_path, ex1_files):
        one = write_json(tmp_path / "one.json", {"n": 3, "coeffs": {"0": "1"}})
        code, out, _ = run(capsys, "combine", ex1_files[0], one)
        assert out == "1 + x^3\n"

    def test_rational_coefficients_serialized_exactly(self, capsys, tmp_path):
        u = write_json(tmp_path / "ru.json", {"n": 3, "coeffs": {"0": "1", "1": "1"}})
        v = write_json(tmp_path / "rv.json", {"n": 3, "coeffs": {"0": "1", "2": "1"}})
        record = json.loads(run(capsys, "combine", u, v, "--format", "json")[1])
        assert record["spectrum"]["coeffs"] == {
            "0": "1",
            "1": "1",
            "3": "2/3",
            "4": "1",
            "5": "1/3",
        }

    def test_partial(self, capsys, ex1_files):
        record = json.loads(
            run(capsys, "combine", *ex1_files, "--partial", "3", "--format", "json")[1]
        )
        assert record["spectrum"]["coeffs"] == {"0": "1", "3": "4"}

    def test_inputs_in_any_exact_spelling_are_echoed_canonically(self, capsys, tmp_path):
        spelled = {
            "u": {"0": "1", "1": "4/6", "2": "007", "3": " 3/4 ", "4": "3/04", "5": "2/1"},
            "v": {"0": 1, "1": "+3", "2": "1.5", "3": "1e3", "4": "3_000", "5": "\u0663"},
        }
        canonical = {
            "u": {"0": "1", "1": "2/3", "2": "7", "3": "3/4", "4": "3/4", "5": "2"},
            "v": {"0": "1", "1": "3", "2": "3/2", "3": "1000", "4": "3000", "5": "3"},
        }
        outs = []
        for coeffs in (spelled, canonical):
            u = write_json(tmp_path / "u.json", {"n": 5, "coeffs": coeffs["u"]})
            v = write_json(tmp_path / "v.json", {"n": 5, "coeffs": coeffs["v"]})
            code, out, err = run(capsys, "combine", u, v, "--format", "json")
            assert code == 0, err
            outs.append(out)
        assert outs[0] == outs[1]
        record = json.loads(outs[0])
        assert record["input"] == {
            "u": {"n": 5, "coeffs": canonical["u"]},
            "v": {"n": 5, "coeffs": canonical["v"]},
        }
        expected = combine(
            WeightEnumerator.from_json_dict({"n": 5, "coeffs": canonical["u"]}),
            WeightEnumerator.from_json_dict({"n": 5, "coeffs": canonical["v"]}),
        )
        assert record["spectrum"] == expected.to_json_dict()

    @pytest.mark.parametrize("text", ["1e20000000", "1E2000000", "1e-20000000"])
    def test_huge_exponent_exit_3_at_once(self, tmp_path, text):
        # Fraction would expand the text into millions of digits; in a fresh
        # interpreter, a hang fails the test instead of stalling the run.
        u = write_json(tmp_path / "u.json", {"n": 1, "coeffs": {"0": text, "1": "1"}})
        v = write_json(tmp_path / "v.json", {"n": 1, "coeffs": {"0": "1", "1": "1"}})
        code, out, err = fresh_cli_run("combine", u, v)
        assert (code, out) == (3, "")
        assert err == f"error: {text!r}: decimal exponent above 4300 in magnitude\n"

    def test_exponents_up_to_the_bound_are_read(self, capsys, tmp_path):
        exact = {"0": "1", "1": "1" + "0" * 4300, "2": "1/" + "1" + "0" * 4300}
        spelled = {"0": "1", "1": "1e4300", "2": "1E-4300"}
        u = write_json(tmp_path / "u.json", {"n": 2, "coeffs": spelled})
        code, out, err = run(capsys, "combine", u, u, "--format", "json")
        assert code == 0, err
        assert json.loads(out)["input"]["u"]["coeffs"] == exact
        u = write_json(tmp_path / "u.json", {"n": 2, "coeffs": {**spelled, "1": "1e4301"}})
        code, out, err = run(capsys, "combine", u, u)
        assert (code, out) == (3, "")

    def test_repeated_values_in_any_spelling(self, capsys, tmp_path):
        # Palindromic spectra repeat nearly every value; each distinct input
        # text and output numerator is converted once per call.
        u = {"0": "1", "1": "02", "2": "4/6", "3": "1.5", "4": "2/3", "5": "2", "6": "02"}
        v = {"0": "01", "1": "1.5", "2": "4/6", "3": "7", "4": "4/6", "5": "1.5", "6": "01"}
        u_enum = WeightEnumerator.from_json_dict({"n": 6, "coeffs": u})
        v_enum = WeightEnumerator.from_json_dict({"n": 6, "coeffs": v})
        assert v_enum.coeffs == v_enum.coeffs[::-1]
        expected = combine(u_enum, v_enum)
        u_path = write_json(tmp_path / "u.json", {"n": 6, "coeffs": u})
        v_path = write_json(tmp_path / "v.json", {"n": 6, "coeffs": v})
        code, out, err = run(capsys, "combine", u_path, v_path, "--format", "json")
        assert code == 0, err
        record = json.loads(out)
        assert record["input"] == {"u": u_enum.to_json_dict(), "v": v_enum.to_json_dict()}
        assert record["spectrum"] == expected.to_json_dict()
        assert run(capsys, "combine", u_path, v_path)[1] == str(expected) + "\n"
        out_path = write_json(tmp_path / "out.json", record)
        channel = ("--rate", "1/2", "--ebn0", "3", "--truncate", "12")
        code, out, err = run(capsys, "bound", out_path, *channel)
        assert code == 0, err
        value = truncated_union_bound(
            common_denominator(expected.coeffs), 12, ChannelPoint(0.5, 3.0)
        )
        assert out == f"{value!r}\n"

    @pytest.mark.parametrize(
        "value, message",
        [
            ([1], "coefficients must be exact (int, Fraction or 'p/q' string), got list"),
            (1.5, "coefficient of x^1 is a float; exact values only"),
            (-1, "coefficient of x^1 is negative: -1"),
            ("-3/2", "coefficient of x^1 is negative: -3/2"),
        ],
    )
    def test_repeated_bad_values_keep_their_errors(self, capsys, tmp_path, value, message):
        path = write_json(
            tmp_path / "s.json", {"n": 3, "coeffs": {"0": "1", "1": value, "3": value}}
        )
        bound = ("--rate", "1/2", "--ebn0", "3", "--truncate", "3")
        for argv in (("combine", path, path), ("bound", path, *bound)):
            assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_partial_record_input_needs_the_weights_it_reads(self, capsys, tmp_path):
        # A --partial 2 record of RM(1, 3) holds weights 0..2 only; the full
        # combine reads weights up to 8 of it and once printed "1".
        part = write_record(capsys, tmp_path / "p.json", "rm", "1", "3", "--partial", "2")
        code, out, err = run(capsys, "combine", part, part)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")
        assert "partial record (weights <= 2 only)" in err
        assert "reads weights up to 8" in err
        assert run(capsys, "combine", part, part, "--partial", "3")[0] == 2

    def test_partial_record_input_within_its_weights(self, capsys, tmp_path):
        part = write_record(capsys, tmp_path / "p.json", "rm", "1", "3", "--partial", "4")
        full = write_record(capsys, tmp_path / "f.json", "rm", "1", "3")
        argv = ("--partial", "4", "--format", "json")
        from_part = json.loads(run(capsys, "combine", part, part, *argv)[1])
        from_full = json.loads(run(capsys, "combine", full, full, *argv)[1])
        assert from_part["spectrum"] == from_full["spectrum"]
        assert from_part["dimension"] is None
        # A record whose partial weight reaches n holds the whole spectrum,
        # but its dimension is still not read from it.
        whole = write_record(capsys, tmp_path / "w.json", "rm", "1", "3", "--partial", "8")
        from_whole = json.loads(run(capsys, "combine", whole, whole, "--format", "json")[1])
        from_full = json.loads(run(capsys, "combine", full, full, "--format", "json")[1])
        assert from_whole["spectrum"] == from_full["spectrum"]
        assert (from_whole["dimension"], from_full["dimension"]) == (None, 8)

    @pytest.mark.parametrize("partial", ["4", 4.0, True, [4]])
    def test_partial_field_must_be_an_integer(self, capsys, tmp_path, partial):
        spectrum = {"n": 8, "coeffs": {"0": "1", "4": "14", "8": "1"}}
        path = write_json(tmp_path / "r.json", {"spectrum": spectrum, "partial": partial})
        code, out, err = run(capsys, "combine", path, path)
        assert (code, out) == (2, "")
        assert "'partial' must be an integer or null" in err

    def test_length_mismatch_exit_2(self, capsys, tmp_path, ex1_files):
        bad = write_json(tmp_path / "bad.json", {"n": 2, "coeffs": {"0": "1"}})
        assert run(capsys, "combine", ex1_files[0], bad)[0] == 2

    def test_declared_length_guard_runs_before_parsing(self, capsys, tmp_path, monkeypatch):
        big = write_json(tmp_path / "big.json", {"n": 2000000, "coeffs": {"1": "1"}})
        monkeypatch.setattr(cli, "spectrum_from_json", refuse_parsing)
        code, out, err = run(capsys, "combine", big, big)
        assert code == 3
        assert out == ""
        assert err.startswith("error: length 4000000 exceeds the guard")

    def test_parse_error_exit_2(self, capsys, tmp_path, ex1_files):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert run(capsys, "combine", ex1_files[0], str(bad))[0] == 2

    def test_missing_file_exit_2(self, capsys, ex1_files):
        assert run(capsys, "combine", ex1_files[0], "/nonexistent.json")[0] == 2


class TestOracle:
    def test_exhaustive_example(self, capsys, tmp_path):
        g0 = write_json(tmp_path / "g0.json", {"n": 3, "rows": ["111"]})
        g1 = write_json(tmp_path / "g1.json", {"n": 3, "rows": ["110", "011"]})
        code, out, _ = run(capsys, "oracle", g0, g1, "--mode", "exhaustive")
        assert code == 0
        assert out == "1 + 4x^3 + 3x^4\n"

    def test_zero_v_code_pads(self, capsys, tmp_path):
        g0 = write_json(tmp_path / "g0.json", {"n": 3, "rows": ["111"]})
        g1 = write_json(tmp_path / "g1.json", {"n": 3, "rows": []})
        assert run(capsys, "oracle", g0, g1)[1] == "1 + x^3\n"

    def test_exhaustive_matches_combine_command(
        self, capsys, tmp_path, derived_matrix_files
    ):
        record = json.loads(
            run(capsys, "oracle", *derived_matrix_files, "--format", "json")[1]
        )
        u = write_json(tmp_path / "cu.json", {"n": 3, "coeffs": {"0": "1", "1": "1"}})
        v = write_json(tmp_path / "cv.json", {"n": 3, "coeffs": {"0": "1", "2": "1"}})
        combined = json.loads(run(capsys, "combine", u, v, "--format", "json")[1])
        assert record["spectrum"] == combined["spectrum"]
        assert record["spectrum"]["coeffs"]["3"] == "2/3"

    def test_montecarlo_record_has_stderrs(self, capsys, derived_matrix_files):
        record = json.loads(
            run(
                capsys,
                "oracle",
                *derived_matrix_files,
                "--mode",
                "montecarlo",
                "--samples",
                "40",
                "--seed",
                "7",
                "--format",
                "json",
            )[1]
        )
        assert record["input"]["samples"] == 40
        assert record["input"]["seed"] == 7
        assert "3" in record["stderr"]

    @pytest.mark.parametrize(
        ("g0_rows", "g1_rows", "exhaustive", "montecarlo", "stderrs"),
        [
            pytest.param(
                ["110000", "001101"],
                ["101000", "010110"],
                {
                    "0": "1", "2": "16/15", "3": "5/4", "4": "26/15", "5": "203/60",
                    "6": "2", "7": "169/60", "8": "13/15", "9": "11/20", "10": "4/3",
                },
                {
                    "0": "1", "2": "28/25", "3": "6/5", "4": "42/25", "5": "83/25",
                    "6": "47/25", "7": "72/25", "8": "23/25", "9": "3/5", "10": "7/5",
                },
                {
                    "0": 0.0, "2": 0.066332495807108, "3": 0.08164965809277261,
                    "4": 0.09521904571390467, "5": 0.21385353243127253,
                    "6": 0.1451436070471816, "7": 0.1451436070471816,
                    "8": 0.11430952132988165, "9": 0.12909944487358055, "10": 0.1,
                },
                id="full-rank",
            ),
            pytest.param(
                ["110000", "011100", "101100"],
                ["101100", "010111", "111011"],
                {
                    "0": "1", "2": "1", "3": "21/10", "4": "1/5", "5": "13/10",
                    "6": "2", "7": "31/10", "8": "12/5", "9": "3/2", "10": "7/5",
                },
                {
                    "0": "1", "2": "1", "3": "52/25", "4": "1/5", "5": "29/25",
                    "6": "49/25", "7": "86/25", "8": "62/25", "9": "33/25", "10": "34/25",
                },
                {
                    "0": 0.0, "2": 0.0, "3": 0.05537749241945383,
                    "4": 0.08164965809277261, "5": 0.12489995996796796,
                    "6": 0.12220201853215573, "7": 0.2891366458960192,
                    "8": 0.1540562667772179, "9": 0.16041612554021287,
                    "10": 0.09797958971132711,
                },
                id="rank-deficient",
            ),
            pytest.param(
                ["110000", "001101"],
                [],
                {"0": "1", "2": "1", "3": "1", "5": "1"},
                {"0": "1", "2": "1", "3": "1", "5": "1"},
                {"0": 0.0, "2": 0.0, "3": 0.0, "5": 0.0},
                id="zero-v-code",
            ),
        ],
    )
    def test_montecarlo_stderrs_are_pinned(
        self, capsys, tmp_path, g0_rows, g1_rows, exhaustive, montecarlo, stderrs
    ):
        # Recorded when each standard error was float() of a Fraction; the
        # integer true division must round every one the same way.  The
        # rank-deficient pair (a third row that is the sum of the first two
        # in each matrix) and the zero v-code were recorded when each
        # instance was counted one coset of rowspace(G0) per codeword v.
        g0 = write_json(tmp_path / "g0.json", {"n": 6, "rows": g0_rows})
        g1 = write_json(tmp_path / "g1.json", {"n": 6, "rows": g1_rows})
        draws = ["--samples", "25", "--seed", "11", "--format", "json"]
        for mode, coeffs, errors in (
            ("exhaustive", exhaustive, None),
            ("montecarlo", montecarlo, stderrs),
        ):
            code, out, err = run(capsys, "oracle", g0, g1, "--mode", mode, *draws)
            assert code == 0, err
            record = json.loads(out)
            assert record["spectrum"]["coeffs"] == coeffs
            assert record.get("stderr") == errors

    def test_budget_exit_3(self, capsys, tmp_path, monkeypatch):
        # n = 8 is admitted.  At n = 8, ranks 6 + 6 fit the word budget and
        # reach the walk, ranks 7 + 6 exit 3 before any permutation.
        g0 = write_json(tmp_path / "g0.json", {"n": 8, "rows": ["10000000"]})
        g1 = write_json(tmp_path / "g1.json", {"n": 8, "rows": []})
        assert run(capsys, "oracle", g0, g1, "--mode", "exhaustive")[:2] == (0, "1 + x\n")
        stop_at_the_walk(monkeypatch)
        g6, g7 = (write_units(tmp_path / f"u{k}.json", 8, k) for k in (6, 7))
        with pytest.raises(Walked, match="^12$"):
            run(capsys, "oracle", g6, g6, "--mode", "exhaustive")
        assert run(capsys, "oracle", g7, g6, "--mode", "exhaustive") == (
            3,
            "",
            "error: 8! permutations x 2^13 codewords (+ 16 + 4 x 8 words each) exceed"
            " the word budget (max 330523200)\n",
        )

    @pytest.mark.parametrize(
        ("n1", "k", "code", "message"),
        [
            (9, 0, 2, "error: component lengths differ: 8 vs 9\n"),
            (9, 7, 2, "error: component lengths differ: 8 vs 9\n"),
            (
                8,
                7,
                3,
                "error: 8! permutations x 2^14 codewords (+ 16 + 4 x 8 words each) exceed"
                " the word budget (max 330523200)\n",
            ),
        ],
    )
    def test_the_length_check_comes_before_the_budgets(
        self, capsys, tmp_path, n1, k, code, message
    ):
        # Ranks k + k.  Lengths 8 and 9 differ: the length check fails
        # first, also at ranks 7 + 7, which at one length n = 8 fail the
        # word budget.
        g0 = write_units(tmp_path / "g0.json", 8, k)
        g1 = write_units(tmp_path / "g1.json", n1, k)
        assert run(capsys, "oracle", g0, g1, "--mode", "exhaustive") == (code, "", message)

    def test_montecarlo_samples_past_the_count_budget_exit_3(
        self, capsys, tmp_path, monkeypatch
    ):
        # Ranks 6 + 6 at n = 7: a billion draws, about 0.3-0.8 ms each, are
        # refused before the first one.  The most draws that fit the word
        # budget reach the walk, one more exits 3 before any draw: at n = 7,
        # and for zero codes at n = 2048, where a draw takes about 1.2 ms.
        g0, g1 = (
            write_json(tmp_path / f"g{i}.json", {"n": 7, "rows": r})
            for i, r in enumerate(N7_PAIR_ROWS)
        )
        argv = ["oracle", g0, g1, "--mode", "montecarlo", "--samples"]
        started = time.perf_counter()
        code, out, err = run(capsys, *argv, "1000000000")
        assert time.perf_counter() - started < 5
        assert (code, out) == (3, "")
        assert err == (
            "error: 1000000000 permutations x 2^12 codewords (+ 16 + 4 x 7 words each) exceed"
            " the word budget (max 330523200)\n"
        )
        zero = write_json(tmp_path / "zero.json", {"n": 2048, "rows": []})
        stop_at_the_walk(monkeypatch)
        for g0, g1, n, rank, most in ((g0, g1, 7, 12, 79836), (zero, zero, 2048, 0, 40263)):
            assert most == 330523200 // ((1 << rank) + 16 + 4 * n)
            argv = ["oracle", g0, g1, "--mode", "montecarlo", "--samples"]
            with pytest.raises(Walked, match=f"^{rank}$"):
                run(capsys, *argv, str(most))
            with monkeypatch.context() as patched:
                # A draw would call None, and the run would not exit 3.
                patched.setattr("plotkin_wef.oracle.uniform_permutation", None)
                assert run(capsys, *argv, str(most + 1)) == (
                    3,
                    "",
                    f"error: {most + 1} permutations x 2^{rank} codewords (+ 16 + 4 x {n} words"
                    " each) exceed the word budget (max 330523200)\n",
                )

    @pytest.mark.parametrize("mode", ["exhaustive", "montecarlo"])
    def test_declared_length_guard_runs_before_building(
        self, capsys, tmp_path, monkeypatch, mode
    ):
        # 27 bytes that once made the Monte Carlo oracle sample permutations
        # of 2 * 10^7 coordinates.
        g = write_json(tmp_path / "g.json", {"n": 20000000, "rows": []})

        def refuse(cls, obj):
            raise AssertionError("matrix built before the length guard")

        with monkeypatch.context() as patched:
            patched.setattr(BinaryMatrix, "from_json_dict", classmethod(refuse))
            code, out, err = run(capsys, "oracle", g, g, "--mode", mode)
        assert code == 3
        assert out == ""
        assert err.startswith("error: length 40000000 exceeds the guard (4096)")

    def test_max_length_flag_and_env(self, capsys, tmp_path, monkeypatch):
        g0 = write_json(tmp_path / "g0.json", {"n": 3, "rows": ["111"]})
        g1 = write_json(tmp_path / "g1.json", {"n": 3, "rows": ["110"]})
        oracle = ("oracle", g0, g1, "--mode", "montecarlo", "--samples", "5")
        assert run(capsys, *oracle, "--max-length", "5")[0] == 3
        assert run(capsys, *oracle, "--max-length", "6")[0] == 0
        monkeypatch.setenv("PLOTKIN_WEF_MAX_LENGTH", "5")
        code, out, err = run(capsys, *oracle)
        assert (code, out) == (3, "")
        assert err.startswith("error: length 6 exceeds the guard (5)")
        monkeypatch.setenv("PLOTKIN_WEF_MAX_LENGTH", "6")
        assert run(capsys, *oracle)[0] == 0

    @pytest.mark.parametrize("mode", ["exhaustive", "montecarlo"])
    @pytest.mark.parametrize("n", [2**64, 10**30])
    def test_huge_declared_length_exit_3(self, capsys, tmp_path, mode, n):
        g = write_json(tmp_path / "g.json", {"n": n, "rows": []})
        code, out, err = run(capsys, "oracle", g, g, "--mode", mode)
        assert code == 3
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        ("mode", "message"),
        [
            ("exhaustive", "! permutations x 2^0 codewords (+ 16 + 4 x "),
            ("montecarlo", " permutations x 2^0 codewords (+ 16 + 4 x "),
        ],
    )
    @pytest.mark.parametrize("n", [2**64, 10**30])
    def test_huge_declared_length_past_raised_guard_exit_3(
        self, capsys, tmp_path, mode, message, n
    ):
        # A guard of 10^40 lets the file through the length check, so it
        # reaches BinaryMatrix and the word budget, which refuses the 4
        # words a coordinate of a single instance before any draw.
        g = write_json(tmp_path / "g.json", {"n": n, "rows": []})
        code, out, err = run(
            capsys, "oracle", g, g, "--mode", mode, "--max-length", str(10**40)
        )
        assert (code, out) == (3, "")
        assert err.startswith("error: ")
        assert f"{message}{n} words each) exceed the word budget" in err

class TestBound:
    def test_value_matches_library(self, capsys, tmp_path):
        spectrum = {"n": 8, "coeffs": {"0": "1", "4": "14", "8": "1"}}
        path = write_json(tmp_path / "s.json", spectrum)
        code, out, _ = run(
            capsys, "bound", path, "--rate", "1/2", "--ebn0", "3", "--truncate", "8"
        )
        assert code == 0
        expected = truncated_union_bound(
            common_denominator(WeightEnumerator.from_json_dict(spectrum).coeffs),
            8,
            ChannelPoint(0.5, 3.0),
        )
        assert float(out.strip()) == expected

    def test_json_record(self, capsys, tmp_path):
        path = write_json(
            tmp_path / "s.json", {"n": 8, "coeffs": {"0": "1", "4": "14", "8": "1"}}
        )
        record = json.loads(
            run(
                capsys,
                "bound",
                path,
                "--rate",
                "0.5",
                "--ebn0",
                "3",
                "--truncate",
                "4",
                "--format",
                "json",
            )[1]
        )
        assert record["bound"]["truncate"] == 4
        assert record["bound"]["rate"] == 0.5
        assert record["bound"]["value"] > 0

    def test_bad_rate_exit_2(self, capsys, tmp_path):
        path = write_json(tmp_path / "s.json", {"n": 2, "coeffs": {"0": "1"}})
        assert (
            run(capsys, "bound", path, "--rate", "x", "--ebn0", "3", "--truncate", "2")[0]
            == 2
        )

    @pytest.mark.parametrize(
        ("text", "rate"), [("1e-3", 0.001), ("2.5e-2", 0.025), ("1e-320", 1e-320)]
    )
    def test_rate_with_an_exponent(self, capsys, tmp_path, text, rate):
        path = write_json(tmp_path / "s.json", {"n": 2, "coeffs": {"0": "1", "2": "1"}})
        argv = ["bound", path, "--rate", text, "--ebn0", "3", "--truncate", "2"]
        code, out, err = run(capsys, *argv, "--format", "json")
        assert code == 0, err
        assert json.loads(out)["bound"]["rate"] == rate

    @pytest.mark.parametrize(
        ("text", "err"),
        [
            # float() overflows: the rate is unreadable, not a budget.
            ("1e400", "error: bad rate '1e400': use a float or p/q\n"),
            # float() underflows to 0.0: the error names the rate as typed.
            ("1e-400", "error: bad rate '1e-400': below the smallest positive float\n"),
        ],
    )
    def test_rate_beyond_the_float_range_exit_2(self, capsys, tmp_path, text, err):
        path = write_json(tmp_path / "s.json", {"n": 2, "coeffs": {"0": "1", "2": "1"}})
        argv = ["bound", path, "--rate", text, "--ebn0", "3", "--truncate", "2"]
        assert run(capsys, *argv) == (2, "", err)

    def test_zero_rate_is_refused_by_the_channel(self, capsys, tmp_path):
        path = write_json(tmp_path / "s.json", {"n": 2, "coeffs": {"0": "1", "2": "1"}})
        argv = ["bound", path, "--rate", "0", "--ebn0", "3", "--truncate", "2"]
        assert run(capsys, *argv) == (2, "", "error: bad rate '0': must be in (0, 1]\n")

    # The exact rate is checked before it is rounded: 1.00000000000000001
    # rounds to 1.0 and -1e-400 to -0.0, and the error names the rate as typed.
    @pytest.mark.parametrize("text", ["1.00000000000000001", "-1e-400", "-1/2", "3/2"])
    def test_rate_outside_the_unit_interval_exit_2(self, capsys, tmp_path, text):
        path = write_json(tmp_path / "s.json", {"n": 2, "coeffs": {"0": "1", "2": "1"}})
        argv = ["bound", path, f"--rate={text}", "--ebn0", "3", "--truncate", "2"]
        assert run(capsys, *argv) == (2, "", f"error: bad rate '{text}': must be in (0, 1]\n")

    def test_huge_rate_exponent_exit_3_at_once(self, tmp_path):
        # Fraction would expand 1e-20000000 into a 20-million-digit integer;
        # in a fresh interpreter, a hang fails the test.
        path = write_json(tmp_path / "s.json", {"n": 2, "coeffs": {"0": "1"}})
        code, out, err = fresh_cli_run(
            "bound", path, "--rate", "1e-20000000", "--ebn0", "3", "--truncate", "2"
        )
        assert (code, out) == (3, "")
        assert err == "error: '1e-20000000': decimal exponent above 4300 in magnitude\n"

    def test_truncate_out_of_range_exit_2(self, capsys, tmp_path):
        path = write_json(tmp_path / "s.json", {"n": 2, "coeffs": {"0": "1"}})
        assert (
            run(
                capsys, "bound", path, "--rate", "0.5", "--ebn0", "3", "--truncate", "9"
            )[0]
            == 2
        )

    def test_declared_length_guard_runs_before_parsing(self, capsys, tmp_path, monkeypatch):
        big = write_json(tmp_path / "big.json", {"n": 2000000, "coeffs": {"1": "1"}})
        bound = ("--rate", "1/2", "--ebn0", "3", "--truncate", "1")
        with monkeypatch.context() as patched:
            patched.setattr(cli, "spectrum_from_json", refuse_parsing)
            code, out, err = run(capsys, "bound", big, *bound)
        assert code == 3
        assert out == ""
        assert err.startswith("error: length 2000000 exceeds the guard")

    def test_partial_record_input(self, capsys, tmp_path):
        # RM(2, 6) has no word of weight 1..15, so a --partial 8 record read
        # up to weight 40 once gave a bound of 0.0 and dimension 0.
        part = write_record(capsys, tmp_path / "p.json", "rm", "2", "6", "--partial", "8")
        full = write_record(capsys, tmp_path / "f.json", "rm", "2", "6")
        channel = ("--rate", "1/2", "--ebn0", "3")
        code, out, err = run(capsys, "bound", part, *channel, "--truncate", "40")
        assert (code, out) == (2, "")
        assert err.startswith("error: ")
        assert "partial record (weights <= 8 only)" in err
        assert "reads weights up to 40" in err
        assert float(run(capsys, "bound", full, *channel, "--truncate", "40")[1]) > 0
        from_part = json.loads(
            run(capsys, "bound", part, *channel, "--truncate", "8", "--format", "json")[1]
        )
        from_full = json.loads(
            run(capsys, "bound", full, *channel, "--truncate", "8", "--format", "json")[1]
        )
        assert from_part["bound"] == from_full["bound"]
        assert (from_part["dimension"], from_full["dimension"]) == (None, 22)
        assert (from_part["partial"], from_full["partial"]) == (8, None)
        # A truncation outside 1..n keeps its own error.
        code, _, err = run(capsys, "bound", part, *channel, "--truncate", "65")
        assert (code, err.splitlines()[0]) == (2, "error: truncate 65 outside 1..64")

    def test_max_length_flag_and_env(self, capsys, tmp_path, monkeypatch):
        path = write_json(tmp_path / "s.json", {"n": 32, "coeffs": {"0": "1", "32": "1"}})
        bound = ("bound", path, "--rate", "1/2", "--ebn0", "3", "--truncate", "32")
        assert run(capsys, *bound, "--max-length", "16")[0] == 3
        assert run(capsys, *bound, "--max-length", "32")[0] == 0
        monkeypatch.setenv("PLOTKIN_WEF_MAX_LENGTH", "16")
        code, out, err = run(capsys, *bound)
        assert (code, out) == (3, "")
        assert err.startswith("error: length 32 exceeds the guard (16)")
        monkeypatch.setenv("PLOTKIN_WEF_MAX_LENGTH", "32")
        assert run(capsys, *bound)[0] == 0


def full_space_spectrum(n, weights):
    return {"n": n, "coeffs": {str(w): str(math.comb(n, w)) for w in weights}}


def mp_union_bound(spectrum, rate, ebn0, truncate):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    gamma = mpmath.mpf(10) ** (mpmath.mpf(ebn0) / 10)
    total = mpmath.mpf(0)
    for key, value in spectrum["coeffs"].items():
        w = int(key)
        if 1 <= w <= truncate:
            x = mpmath.sqrt(2 * w * mpmath.mpf(rate) * gamma)
            total += mpmath.mpf(int(value)) * mpmath.erfc(x / mpmath.sqrt(2)) / 2
    return float(total)


class TestBoundBeyondFloatRange:
    """Coefficients such as C(1100, 550) exceed float range."""

    @pytest.mark.parametrize(
        "weights, rel_tol",
        [(range(1101), 1e-9), (range(500, 601), 1e-8)],
        ids=["full-space", "overflowing-only"],
    )
    def test_matches_high_precision_reference(self, capsys, tmp_path, weights, rel_tol):
        spectrum = full_space_spectrum(1100, weights)
        path = write_json(tmp_path / "s.json", spectrum)
        code, out, err = run(
            capsys, "bound", path, "--rate", "1", "--ebn0", "3", "--truncate", "1100"
        )
        assert code == 0, err
        reference = mp_union_bound(spectrum, 1, 3, 1100)
        assert abs(float(out) - reference) <= rel_tol * reference

    @pytest.mark.parametrize(
        "spectrum",
        [{"n": 3, "coeffs": {"0": "1", "3": "1"}}, full_space_spectrum(1100, range(1101))],
        ids=["small", "full-space"],
    )
    def test_ebn0_beyond_float_range_gives_zero(self, capsys, tmp_path, spectrum):
        path = write_json(tmp_path / "s.json", spectrum)
        truncate = str(spectrum["n"])
        for ebn0 in ("4000", "1e308"):
            code, out, err = run(
                capsys, "bound", path, "--rate", "1", "--ebn0", ebn0, "--truncate", truncate
            )
            assert code == 0, err
            assert out == "0.0\n"
            assert "Traceback" not in err

    def test_ebn0_beyond_float_range_with_tiny_rate(self, capsys, tmp_path):
        # gamma = 10^309 overflows, but rate * gamma stays small: Q is near 1/2.
        spectrum = {"n": 3, "coeffs": {"0": "1", "1": "3", "3": "1"}}
        path = write_json(tmp_path / "s.json", spectrum)
        code, out, err = run(
            capsys, "bound", path, "--rate", "1e-320", "--ebn0", "3090", "--truncate", "3"
        )
        assert code == 0, err
        reference = mp_union_bound(spectrum, 1e-320, 3090, 3)
        assert abs(float(out) - reference) <= 1e-9 * reference

    def test_sum_beyond_float_range_exit_2(self, capsys, tmp_path):
        path = write_json(tmp_path / "s.json", full_space_spectrum(1100, range(1101)))
        code, out, err = run(
            capsys, "bound", path, "--rate", "1", "--ebn0", "-30", "--truncate", "1100"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "Traceback" not in err


class TestLengthGuardBelowOne:
    """A guard below 1 could refuse every length, so it is a usage error
    (exit 2), whether it comes from --max-length or the environment."""

    @pytest.fixture
    def commands(self, tmp_path):
        spectrum = write_json(tmp_path / "s.json", {"n": 4, "coeffs": {"0": "1", "4": "1"}})
        g = write_json(tmp_path / "g.json", {"n": 3, "rows": ["110"]})
        tree = write_json(tmp_path / "t.json", {"m": 2, "active": [3]})
        return {
            "rm": ("rm", "1", "3"),
            "tree": ("tree", tree),
            "combine": ("combine", spectrum, spectrum),
            "oracle": ("oracle", g, g),
            "bound": ("bound", spectrum, "--rate", "1/2", "--ebn0", "3", "--truncate", "4"),
        }

    @pytest.mark.parametrize("command", ["rm", "tree", "combine", "oracle", "bound"])
    @pytest.mark.parametrize(
        "source, value", [("flag", "0"), ("flag", "-5"), ("env", "0"), ("env", "-1")]
    )
    def test_exit_2(self, capsys, monkeypatch, commands, command, source, value):
        argv = commands[command]
        if source == "flag":
            argv += ("--max-length", value)
        else:
            monkeypatch.setenv("PLOTKIN_WEF_MAX_LENGTH", value)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: the length guard must be at least 1, got {value}\n"

    @pytest.mark.parametrize("command", ["tree", "combine", "oracle", "bound"])
    def test_refused_before_any_input_is_read(self, capsys, monkeypatch, commands, command):
        def refuse(path):
            raise AssertionError(f"{path} read before the guard was checked")

        monkeypatch.setattr(cli, "_load_json", refuse)
        assert run(capsys, *commands[command], "--max-length", "0")[0] == 2

    def test_guard_of_1_admits_length_1(self, capsys):
        assert run(capsys, "rm", "0", "0", "--max-length", "1")[:2] == (0, "1 + x\n")


class TestTree:
    def test_rm_and_active_forms_agree_byte_for_byte(self, capsys, tmp_path):
        rm_file = write_json(tmp_path / "rm.json", {"rm": {"r": 1, "m": 3}})
        active_file = write_json(
            tmp_path / "act.json", {"m": 3, "active": [3, 5, 6, 7]}
        )
        out_rm = run(capsys, "tree", rm_file, "--format", "json")[1]
        out_active = run(capsys, "tree", active_file, "--format", "json")[1]
        assert out_rm == out_active
        record = json.loads(out_rm)
        assert record["dimension"] == 4
        assert record["spectrum"]["coeffs"] == {"0": "1", "4": "14", "8": "1"}

    def test_all_frozen_tree(self, capsys, tmp_path):
        path = write_json(tmp_path / "t.json", {"m": 3, "active": []})
        code, out, _ = run(capsys, "tree", path)
        assert code == 0
        assert out == "1\n"

    def test_emit_generator(self, capsys, tmp_path):
        path = write_json(tmp_path / "t.json", {"rm": {"r": 1, "m": 3}})
        code, out, _ = run(capsys, "tree", path, "--emit-generator")
        assert out.splitlines() == [
            "1 + 14x^4 + x^8",
            "11110000",
            "11001100",
            "10101010",
            "11111111",
        ]
        record = json.loads(
            run(capsys, "tree", path, "--emit-generator", "--format", "json")[1]
        )
        assert record["generator"] == {
            "n": 8,
            "rows": ["11110000", "11001100", "10101010", "11111111"],
        }

    def test_partial_is_a_prefix_of_the_full_record(self, capsys, tmp_path):
        # Leaves 3, 5, 6, 7, 11 and 13 of a depth-4 tree: not an RM code.
        path = write_json(tmp_path / "t.json", {"m": 4, "active": [3, 5, 6, 7, 11, 13]})
        full = json.loads(run(capsys, "tree", path, "--format", "json")[1])
        for w in (0, 3, 4, 9, 16):
            code, out, err = run(capsys, "tree", path, "--partial", str(w), "--format", "json")
            assert code == 0, err
            part = json.loads(out)
            assert part["partial"] == w
            expected = {k: c for k, c in full["spectrum"]["coeffs"].items() if int(k) <= w}
            assert part["spectrum"]["coeffs"] == expected
            assert part["input"] == full["input"]
        code, _, err = run(capsys, "tree", path, "--partial", "17")
        assert (code, err.splitlines()[0]) == (2, "error: --partial 17 outside 0..16")

    def test_sparse_deep_tree_checks_partial_before_building(self, capsys, tmp_path):
        # Two active leaves at depth 40: the rows e_0 and the all-ones word.
        m = 40
        path = write_json(tmp_path / "t.json", {"m": m, "active": [(1 << m) - 1, 0]})
        guard = ("--max-length", str(1 << m))
        code, out, err = run(capsys, "tree", path, "--partial", "2", *guard, "--format", "json")
        assert code == 0, err
        record = json.loads(out)
        assert record["input"] == {"m": m, "active": [0, (1 << m) - 1]}
        assert record["spectrum"]["coeffs"] == {"0": "1", "1": "1"}
        assert record["dimension"] == 2
        code, _, err = run(capsys, "tree", path, "--partial", str((1 << m) + 1), *guard)
        assert (code, err.splitlines()[0]) == (
            2, f"error: --partial {(1 << m) + 1} outside 0..{1 << m}"
        )

    def test_partial_record_feeds_bound_up_to_its_weight(self, capsys, tmp_path):
        path = write_json(tmp_path / "t.json", {"m": 4, "active": [3, 5, 6, 7, 11, 13]})
        part = write_record(capsys, tmp_path / "p.json", "tree", path, "--partial", "6")
        full = write_record(capsys, tmp_path / "f.json", "tree", path)
        channel = ("--rate", "3/8", "--ebn0", "2")
        from_part = run(capsys, "bound", part, *channel, "--truncate", "6")
        assert from_part[0] == 0
        assert from_part[1] == run(capsys, "bound", full, *channel, "--truncate", "6")[1]
        code, out, err = run(capsys, "bound", part, *channel, "--truncate", "7")
        assert (code, out) == (2, "")
        assert "partial record (weights <= 6 only)" in err

    def test_malformed_tree_exit_2(self, capsys, tmp_path):
        path = write_json(tmp_path / "t.json", {"m": 3})
        assert run(capsys, "tree", path)[0] == 2


class TestRoundTrips:
    def test_rm_json_feeds_bound_and_combine(self, capsys, tmp_path):
        out = run(capsys, "rm", "1", "3", "--format", "json")[1]
        record_path = tmp_path / "record.json"
        record_path.write_text(out, encoding="utf-8")
        code, bound_out, _ = run(
            capsys,
            "bound",
            str(record_path),
            "--rate",
            "0.5",
            "--ebn0",
            "3",
            "--truncate",
            "8",
        )
        assert code == 0
        assert float(bound_out.strip()) > 0

        code, comb_out, _ = run(capsys, "combine", str(record_path), str(record_path))
        assert code == 0
        rm13 = WeightEnumerator(8, (1, 0, 0, 0, 14, 0, 0, 0, 1))
        expected = combine(rm13, rm13)
        assert comb_out.strip() == str(expected)

    @pytest.mark.parametrize(
        "command, obj",
        [
            ("combine", {"n": True, "coeffs": {"0": "1"}}),
            ("combine", {"n": 1, "coeffs": {"0": True}}),
            ("tree", {"m": True, "active": [True]}),
            ("tree", {"m": 2, "active": [True]}),
            ("tree", {"rm": {"r": True, "m": 3}}),
            ("oracle", {"n": True, "rows": ["1"]}),
        ],
        ids=[
            "spectrum-n", "coefficient", "tree-m", "tree-leaf", "tree-rm", "matrix-n"
        ],
    )
    def test_json_bool_is_not_an_integer(self, capsys, tmp_path, command, obj):
        path = write_json(tmp_path / "in.json", obj)
        files = [path] if command == "tree" else [path, path]
        code, out, err = run(capsys, command, *files)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "Traceback" not in err

    @staticmethod
    def spectrum_argv(tmp_path, case):
        """argv (without --format) of a command that prints a spectrum."""
        tree, u, v, g0, g1 = (
            write_json(tmp_path / f"{name}.json", obj)
            for name, obj in [
                ("tree", {"m": 4, "active": [3, 5, 6, 7, 11, 13]}),
                ("u", {"n": 5, "coeffs": {"0": "1", "1": "2/3", "3": "5/7"}}),
                ("v", {"n": 5, "coeffs": {"0": "1", "2": "1/2", "5": "1"}}),
                ("g0", {"n": 3, "rows": ["100"]}),
                ("g1", {"n": 3, "rows": ["110"]}),
            ]
        )
        return {
            "rm": ["rm", "2", "4"],
            "rm-partial": ["rm", "2", "4", "--partial", "6"],
            "tree": ["tree", tree, "--emit-generator"],
            "tree-partial": ["tree", tree, "--partial", "9"],
            "combine": ["combine", u, v],
            "combine-partial": ["combine", u, v, "--partial", "6"],
            "bound": ["bound", u, "--rate", "1/2", "--ebn0", "3", "--truncate", "4"],
            "oracle-exhaustive": ["oracle", g0, g1],
            "oracle-montecarlo": ["oracle", g0, g1, "--mode", "montecarlo", "--samples", "40"],
        }[case]

    @pytest.mark.parametrize(
        "case",
        [
            "rm", "rm-partial", "tree", "tree-partial", "combine", "combine-partial",
            "bound", "oracle-exhaustive", "oracle-montecarlo",
        ],
    )
    def test_every_format_prints_the_same_spectrum(self, capsys, tmp_path, case):
        argv = self.spectrum_argv(tmp_path, case)
        code, out, err = run(capsys, *argv, "--format", "json")
        assert code == 0, err
        record = json.loads(out)
        coeffs = record["spectrum"]["coeffs"]
        poly = run(capsys, *argv, "--format", "poly")[1].splitlines()
        if case == "bound":
            assert poly == [repr(record["bound"]["value"])]
        else:
            assert poly[0] == format_poly(WeightEnumerator.from_json_dict(record["spectrum"]))
            assert poly[1:] == record.get("generator", {}).get("rows", [])
        csv = run(capsys, *argv, "--format", "csv")[1].splitlines()
        stderrs = record.get("stderr")
        if stderrs is None:
            assert csv[0] == "weight,coefficient"
            assert csv[1:] == [f"{w},{c}" for w, c in coeffs.items()]
        else:
            assert csv[0] == "weight,coefficient,stderr"
            assert [row.split(",") for row in csv[1:]] == [
                [w, c, repr(stderrs.get(w, 0.0))] for w, c in coeffs.items()
            ]
            assert any(float(row.split(",")[2]) > 0 for row in csv[1:])

    @pytest.mark.parametrize("case", ["rm", "rm-partial", "tree", "combine-partial"])
    def test_poly_renders_the_record_without_fractions(self, capsys, tmp_path, case):
        # The poly line is rendered from the record's texts, so a fresh
        # interpreter that prints it never loads fractions.
        argv = [*self.spectrum_argv(tmp_path, case), "--format", "poly"]
        code, expected, _ = run(capsys, *argv)
        assert code == 0
        out, modules = fresh_cli_modules(*argv)
        assert out == expected
        assert "fractions" not in modules

    def test_coefficients_beyond_the_int_str_limit(self, capsys, tmp_path):
        # A 5000-digit coefficient is past Python's default 4300-digit limit
        # on int/str conversion; main lifts it for the call and restores it.
        big = 10**4999 + 12345
        u = WeightEnumerator(4, (1, 0, Fraction(3, 7), 0, big))
        v = WeightEnumerator(4, (1, 0, 0, 0, 1))
        with any_int_digits():
            u_path = write_json(tmp_path / "u.json", u.to_json_dict())
            expected = combine(u, v)
            expected_json = expected.to_json_dict()
            expected_poly = format_poly(expected)
        v_path = write_json(tmp_path / "v.json", v.to_json_dict())
        limit = sys.get_int_max_str_digits()
        channel = ChannelPoint(1 / 350, 60.0)
        outs = {}
        for fmt in ("json", "poly", "csv"):
            code, outs[fmt], err = run(capsys, "combine", u_path, v_path, "--format", fmt)
            assert (code, sys.get_int_max_str_digits()) == (0, limit), err
        record_path = tmp_path / "combined.json"
        record_path.write_text(outs["json"], encoding="utf-8")
        bounds = [
            (u_path, 4, truncated_union_bound(common_denominator(u.coeffs), 4, channel)),
            (
                str(record_path),
                8,
                truncated_union_bound(common_denominator(expected.coeffs), 8, channel),
            ),
        ]
        for path, truncate, value in bounds:
            code, out, err = run(
                capsys, "bound", path, "--rate", "1/350", "--ebn0", "60",
                "--truncate", str(truncate),
            )
            assert (code, sys.get_int_max_str_digits()) == (0, limit), err
            assert value > 1e30
            assert float(out) == value
        assert json.loads(outs["json"])["spectrum"] == expected_json
        assert outs["poly"] == expected_poly + "\n"
        assert outs["csv"].splitlines()[1:] == [
            f"{w},{c}" for w, c in expected_json["coeffs"].items()
        ]
        assert len(expected_json["coeffs"]["4"]) == 5000

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["rm", "not-an-int", "3"])
        assert excinfo.value.code == 2
