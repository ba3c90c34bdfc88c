"""The record writer: ``enumerator.dump_json`` writes ``json.dumps(obj,
indent=2)`` byte for byte, with canonical coefficient blocks unescaped."""

import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plotkin_wef import cli
from plotkin_wef.enumerator import (
    CanonicalCoeffs,
    dump_json,
    spectrum_from_json,
    spectrum_to_json,
)

# Strings that JSON must escape, or that an ASCII writer must spell as
# \uXXXX, besides arbitrary text.
NASTY = ['"', "\\", "\x00", "\n", "\t", "\x7f", " ", "é", "\U0001f600", '"coeffs"']
texts = st.text() | st.sampled_from(NASTY) | st.lists(st.sampled_from(NASTY)).map("".join)

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([-0.0, float("inf"), float("-inf"), float("nan")])
    | texts
)

# Canonical coefficient texts, "p" or "p/q", keyed by the decimal weight.
canonical_texts = st.integers(0, 10**40).map(str) | st.tuples(
    st.integers(1, 10**20), st.integers(2, 10**20)
).map("{0[0]}/{0[1]}".format)
canonical_coeffs = st.dictionaries(st.integers(0, 10**6).map(str), canonical_texts).map(
    CanonicalCoeffs
)

# Keys json.dumps converts before writing them, beside strings.
keys = texts | st.integers() | st.booleans() | st.none() | st.floats()


def dumped(obj) -> str:
    out = io.StringIO()
    dump_json(obj, out)
    return out.getvalue()


def json_values(leaves):
    return st.recursive(
        leaves,
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(texts, children, max_size=4)
        | st.dictionaries(keys, children, max_size=3)
        # A plain dict named "coeffs", holding strings that need escaping:
        # only a CanonicalCoeffs block is written unescaped.
        | st.fixed_dictionaries(
            {"n": st.integers(), "coeffs": st.dictionaries(texts, texts, max_size=4)}
        )
        | st.fixed_dictionaries({"n": st.integers(), "coeffs": canonical_coeffs}),
        max_leaves=24,
    )


@settings(max_examples=400, deadline=None)
@given(json_values(scalars | canonical_coeffs))
@example({})
@example([])
@example({"coeffs": {}})
@example({"coeffs": CanonicalCoeffs()})
@example({"a": {"b": {"coeffs": CanonicalCoeffs({"0": "1", "12": "3/4"})}}, "c": [{}]})
@example({"coeffs": {'"': "\\", "\n": "\x00é"}})
@example([CanonicalCoeffs({"1": "2"}), {"x": CanonicalCoeffs({"3": "4"})}])
@example({1: CanonicalCoeffs({"1": "2"}), "k": -0.0})
def test_dump_json_writes_json_dumps_indent_2(obj):
    assert dumped(obj) == json.dumps(obj, indent=2)


def test_spectrum_writers_return_canonical_blocks():
    assert type(spectrum_to_json(4, 3, [3, 0, 1, 0, 6])["coeffs"]) is CanonicalCoeffs
    echo = spectrum_from_json({"n": 2, "coeffs": {"2": "06/4", "0": 1}})[2]
    assert type(echo["coeffs"]) is CanonicalCoeffs
    assert echo == {"n": 2, "coeffs": {"0": "1", "2": "3/2"}}
    assert dumped(echo) == json.dumps(echo, indent=2)


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def command_lines(tmp_path):
    """One or more command lines of every command, with --format json."""
    u = write_json(tmp_path / "u.json", {"n": 4, "coeffs": {"0": "1", "2": "10/4", "4": 3}})
    v = write_json(tmp_path / "v.json", {"n": 4, "coeffs": {"0": "2/3", "1": "1", "3": "7"}})
    tree = write_json(tmp_path / "tree.json", {"m": 3, "active": [1, 3, 5, 6, 7]})
    g0 = write_json(tmp_path / "g0.json", {"n": 3, "rows": ["100"]})
    g1 = write_json(tmp_path / "g1.json", {"n": 3, "rows": ["110"]})
    spectrum = write_json(tmp_path / "s.json", {"n": 8, "coeffs": {"0": "1", "4": "14", "8": "1"}})
    return [
        ["rm", "2", "5"],
        ["rm", "1", "4", "--partial", "6"],
        ["tree", tree, "--emit-generator"],
        ["tree", tree, "--partial", "3"],
        ["combine", u, v],
        ["combine", u, v, "--partial", "3"],
        ["oracle", g0, g1],
        ["oracle", g0, g1, "--mode", "montecarlo", "--samples", "50", "--seed", "3"],
        ["bound", spectrum, "--rate", "1/2", "--ebn0", "2.5", "--truncate", "8"],
    ]


@pytest.mark.parametrize("index", range(9))
def test_every_command_record_is_written_as_json_dumps(capsys, tmp_path, index):
    argv = [*command_lines(tmp_path)[index], "--format", "json"]
    args = cli.build_parser().parse_args(argv)
    args.max_length = cli.DEFAULT_MAX_LENGTH
    record = args.handler(args)
    # Every command's spectrum is a canonical block, so the splice is used.
    assert type(record["spectrum"]["coeffs"]) is CanonicalCoeffs
    expected = json.dumps(record, indent=2)
    assert dumped(record) == expected
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected + "\n"
