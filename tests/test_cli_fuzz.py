"""Fuzz of the CLI contract: malformed files and out-of-range arguments.

Every subcommand must end with exit status 0, 2 or 3 and never print a
traceback.  Sizes that are valid but merely large (a spectrum with 10^8
coefficients, a guard raised far beyond its default) are left out: they
are real work, not malformed input.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from plotkin_wef.cli import main

# Lengths and depths: small ones, and ones far beyond any memory.
sizes = st.integers(-3, 12) | st.sampled_from([2**62, 2**63, 2**64, 10**30])
depths = st.integers(-3, 8) | st.sampled_from([64, 65, 10**6, 10**18])
big_ints = st.integers(-(10**20), 10**20)
small_or_huge = st.integers(-5, 40) | big_ints

json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-1000, 1000)
    | st.sampled_from([2**64, -(2**64)])
    | st.floats()
    | st.text(max_size=6)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4)
    ),
    max_leaves=10,
)
coefficients = (
    st.integers(-5, 10**6)
    | st.booleans()
    | st.floats()
    | st.none()
    | st.lists(st.integers(0, 3), max_size=2)
    | st.sampled_from(["1/0", "0/0", "-1", "3/4", "x", "1e400", "nan", "inf", " 2 ", "", "1/-2"])
    # Longer than Python's default limit on int/str conversion (4300 digits).
    | st.just("9" * 5000)
)
weight_keys = st.integers(-3, 15).map(str) | st.text(max_size=3)

spectra = st.fixed_dictionaries(
    {
        "n": sizes | json_scalars,
        "coeffs": st.dictionaries(weight_keys, coefficients, max_size=6),
    }
)
trees = st.fixed_dictionaries(
    {
        "m": depths | json_scalars,
        "active": st.lists(st.integers(-2, 70) | json_scalars, max_size=6),
    }
) | st.fixed_dictionaries(
    {"rm": st.fixed_dictionaries({"r": big_ints | json_scalars, "m": depths})}
)
matrices = st.fixed_dictionaries(
    {
        # 2n around the fuzz guard of 32 and its limits, and far beyond it.
        "n": st.integers(-2, 6)
        | st.sampled_from([15, 16, 17, 32, 33, 2**64, 10**30])
        | json_scalars,
        "rows": st.lists(st.text(alphabet="01x", max_size=7) | json_scalars, max_size=3),
    }
) | st.sampled_from([8, 11]).flatmap(
    # Valid rows on both sides of the oracles' word budget: n = 8 is
    # admitted at these ranks, n = 11 refused at any rank (11! instances).
    # Up to three distinct rows, repeated up to three times: more rows than
    # their rank.
    lambda n: st.fixed_dictionaries(
        {
            "n": st.just(n),
            "rows": st.builds(
                lambda rows, times: rows * times,
                st.lists(st.text(alphabet="01", min_size=n, max_size=n), max_size=3),
                st.integers(1, 3),
            ),
        }
    )
)


def file_text(structured):
    """A JSON file's text: near-valid structure, arbitrary JSON, or not JSON at all."""
    return (
        structured.map(json.dumps)
        | st.builds(lambda obj: json.dumps({"spectrum": obj}), structured)
        | st.builds(
            lambda obj, partial: json.dumps({"spectrum": obj, "partial": partial}),
            structured,
            small_or_huge | json_scalars,
        )
        | json_values.map(json.dumps)
        | st.text(max_size=20)
        | st.sampled_from(["", "{", "[" * 100000, "1" * 5000, '{"n": 1, "coeffs": {"0": "1"}}x'])
    )


def write(directory, name, text):
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8", errors="surrogatepass") as fh:
        fh.write(text)
    return path


def options(**choices):
    """Optional flags: each of ``choices`` (flag -> strategy) present or absent."""
    return st.fixed_dictionaries({}, optional=choices).map(
        lambda picked: [item for flag, value in picked.items() for item in (flag, str(value))]
    )


formats = options(**{"--format": st.sampled_from(["poly", "json", "csv", "xml"])})
# The guard stays small here so that a valid input never means long work.
guarded = options(
    **{
        "--format": st.sampled_from(["poly", "json", "csv"]),
        "--max-length": st.integers(-5, 64),
    }
).map(lambda flags: flags if "--max-length" in flags else [*flags, "--max-length", "32"])
# oracle also takes a guard far past any size, so that matrices declaring
# n = 2**64 or 10**30 reach BinaryMatrix and the word budget's exit; that
# budget and at most three distinct rows keep every valid input small.
oracle_common = options(
    **{
        "--format": st.sampled_from(["poly", "json", "csv", "xml"]),
        "--max-length": st.integers(-5, 64) | st.sampled_from([10**40]),
    }
)
partial = options(**{"--partial": small_or_huge})


def run_cli(argv):
    """(exit status, stderr) of one in-process run; argparse exits count too."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def check_contract(argv):
    code, err = run_cli(argv)
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code != 0:
        assert err.startswith(("error:", "usage:")), (argv, err)


FUZZ = settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(r=big_ints.map(str) | st.text(max_size=3), m=depths.map(str), flags=partial, common=guarded)
def test_rm(r, m, flags, common):
    check_contract(["rm", r, m, *flags, *common])


@FUZZ
@given(text=file_text(trees), emit=st.booleans(), flags=partial, common=guarded)
def test_tree(text, emit, flags, common):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["tree", write(tmp, "t.json", text), *flags, *common]
        check_contract(argv + ["--emit-generator"] if emit else argv)


@FUZZ
@given(u=file_text(spectra), v=file_text(spectra), flags=partial, common=guarded)
def test_combine(u, v, flags, common):
    with tempfile.TemporaryDirectory() as tmp:
        u_path, v_path = write(tmp, "u.json", u), write(tmp, "v.json", v)
        check_contract(["combine", u_path, v_path, *flags, *common])


@FUZZ
@given(
    g0=file_text(matrices),
    g1=file_text(matrices),
    mode=st.sampled_from(["exhaustive", "montecarlo", "other"]),
    samples=st.integers(-3, 20) | big_ints.filter(lambda s: s <= 0),
    seed=big_ints,
    common=oracle_common,
)
def test_oracle(g0, g1, mode, samples, seed, common):
    with tempfile.TemporaryDirectory() as tmp:
        check_contract([
            "oracle", write(tmp, "g0.json", g0), write(tmp, "g1.json", g1),
            "--mode", mode, "--samples", str(samples), "--seed", str(seed), *common,
        ])


@FUZZ
@given(
    spectrum=file_text(spectra),
    rate=st.sampled_from(["1/2", "1", "0", "-1", "2", "1/0", "x", "nan", "inf", "1e-320"])
    | st.floats().map(repr),
    ebn0=st.floats().map(repr) | st.sampled_from(["4000", "-4000", "1e308", "-1e308", "x"]),
    truncate=small_or_huge.map(str),
    common=formats,
)
def test_bound(spectrum, rate, ebn0, truncate, common):
    with tempfile.TemporaryDirectory() as tmp:
        check_contract([
            "bound", write(tmp, "s.json", spectrum),
            "--rate", rate, "--ebn0", ebn0, "--truncate", truncate, *common,
        ])

