import json
import math

import pytest

from plotkin_wef import WeightEnumerator, combine, parse_poly, truncated_union_bound
from plotkin_wef.bounds import ChannelPoint
from plotkin_wef.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


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

    def test_max_length_flag_and_env(self, capsys, monkeypatch):
        assert run(capsys, "rm", "0", "5", "--max-length", "16")[0] == 3
        assert run(capsys, "rm", "0", "5", "--max-length", "32")[0] == 0
        monkeypatch.setenv("PLOTKIN_WEF_MAX_LENGTH", "16")
        assert run(capsys, "rm", "0", "5")[0] == 3
        monkeypatch.setenv("PLOTKIN_WEF_MAX_LENGTH", "32")
        assert run(capsys, "rm", "0", "5")[0] == 0
        monkeypatch.setenv("PLOTKIN_WEF_MAX_LENGTH", "twelve")
        assert run(capsys, "rm", "0", "3")[0] == 2

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

    def test_length_mismatch_exit_2(self, capsys, tmp_path, ex1_files):
        bad = write_json(tmp_path / "bad.json", {"n": 2, "coeffs": {"0": "1"}})
        assert run(capsys, "combine", ex1_files[0], bad)[0] == 2

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

    def test_budget_exit_3(self, capsys, tmp_path):
        g0 = write_json(
            tmp_path / "g0.json", {"n": 8, "rows": ["10000000"]}
        )
        g1 = write_json(tmp_path / "g1.json", {"n": 8, "rows": []})
        assert run(capsys, "oracle", g0, g1, "--mode", "exhaustive")[0] == 3


class TestBound:
    def test_value_matches_library(self, capsys, tmp_path):
        spectrum = {"n": 8, "coeffs": {"0": "1", "4": "14", "8": "1"}}
        path = write_json(tmp_path / "s.json", spectrum)
        code, out, _ = run(
            capsys, "bound", path, "--rate", "1/2", "--ebn0", "3", "--truncate", "8"
        )
        assert code == 0
        expected = truncated_union_bound(
            WeightEnumerator.from_json_dict(spectrum), 8, ChannelPoint(0.5, 3.0)
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

    def test_truncate_out_of_range_exit_2(self, capsys, tmp_path):
        path = write_json(tmp_path / "s.json", {"n": 2, "coeffs": {"0": "1"}})
        assert (
            run(
                capsys, "bound", path, "--rate", "0.5", "--ebn0", "3", "--truncate", "9"
            )[0]
            == 2
        )


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

    def test_sum_beyond_float_range_exit_2(self, capsys, tmp_path):
        path = write_json(tmp_path / "s.json", full_space_spectrum(1100, range(1101)))
        code, out, err = run(
            capsys, "bound", path, "--rate", "1", "--ebn0", "-30", "--truncate", "1100"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "Traceback" not in err


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
        expected = combine(
            parse_poly("1 + 14x^4 + x^8", 8), parse_poly("1 + 14x^4 + x^8", 8)
        )
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

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["rm", "not-an-int", "3"])
        assert excinfo.value.code == 2
