"""Command-line surface: tree spectra, combines, oracles and union bounds.

Output formats: "poly" (human polynomial, the default), "json" (the stable
machine contract) and "csv".  JSON output is byte-identical across identical
invocations; wall-clock timing therefore goes to stderr.

Exit codes: 0 success, 2 usage or parse problems, 3 resource budget exceeded.
The default size guard (4096 coordinates) can be overridden per invocation
with --max-length or globally with the PLOTKIN_WEF_MAX_LENGTH environment
variable; a guard below 1, which no length could meet, is a usage error
(exit 2), refused before any input is read.  combine, oracle and bound check
the length n that each input file declares before they build its spectrum
or matrix.

Each command is a function from its parsed arguments to one JSON record,
and main renders json, csv and poly from that record alone: the JSON text
is what enumerator.dump_json writes, json.dumps(record, indent=2) with the
canonical coefficient blocks written unescaped; the poly line is
enumerator.render_poly of the record's canonical coefficient texts, followed
by the generator rows that tree --emit-generator adds, and a bound record
prints its value.

Spectra stay in integer form, ``(den, nums)``, from input to output:
combine and bound parse their spectrum files straight into that form
(enumerator.spectrum_from_json, which also gives the canonical echo of the
input: each distinct "p/q" text is read with one int(), and the texts over
a shared denominator are reduced together, with one gcd with it;
combine --partial W echoes the integer texts above W unconverted), and
enumerator.spectrum_to_json reduces each nonzero coefficient to lowest
terms only when it is written out; bound sums its union bound over that
form too.  Fractions are built only by oracle and by bound for its --rate,
and only they load the fractions module.  Integers of any size are read
and written: main lifts Python's limit on int/str conversion for the
duration of the call.

A spectrum file may be an output record.  A record written with --partial P
holds only the weights 0..P; combine and bound refuse it (exit 2) when they
need a weight above P, and report its dimension as null otherwise.

A command loads the modules it runs and no others, since every CLI call is
a fresh interpreter and its imports are a large share of a short call.
Every command loads the spectrum I/O of enumerator and plotkin.combine_int;
rm and tree add codetree, bound adds bounds, and oracle and
tree --emit-generator add oracle.  Every public name of the package also
resolves as an attribute of this module, imported on first access.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from .enumerator import (
    _as_fraction,
    common_denominator,
    dump_json,
    is_int,
    render_poly,
    spectrum_from_json,
    spectrum_to_json,
)
from .errors import BudgetError
from .plotkin import combine_int

# Every public name of the package is bound here on first use, from the
# package namespace, which imports it from its home module; so a command
# loads only the modules it runs: codetree for rm and tree, bounds for
# bound.  The handlers call rm_tree, tree_from_json_dict and
# truncated_union_bound as attributes of this module (_self), and an
# existing binding is never replaced, so a name patched here, as
# perfbench's tracer and the tests patch them, is the one called.
def __getattr__(name: str):
    package = sys.modules[__package__]
    if name not in package.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals().setdefault(name, getattr(package, name))


# This module, through which the handlers call the package's names.
_self = sys.modules[__name__]

DEFAULT_MAX_LENGTH = 4096
MAX_LENGTH_ENV = "PLOTKIN_WEF_MAX_LENGTH"


def _max_length_default() -> int:
    raw = os.environ.get(MAX_LENGTH_ENV)
    if raw is None:
        return DEFAULT_MAX_LENGTH
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{MAX_LENGTH_ENV}={raw!r} is not an integer") from None


def _guard_error(length_text: str, max_length: int) -> BudgetError:
    return BudgetError(
        f"length {length_text} exceeds the guard ({max_length});"
        f" raise --max-length or {MAX_LENGTH_ENV} if intended"
    )


def _check_length(length: int, max_length: int) -> None:
    if length > max_length:
        raise _guard_error(str(length), max_length)


def _tree_length(m: int, max_length: int) -> int:
    """Length 2^m of a depth-m tree, checked against the guard before any
    tree is built; a depth far past the guard never builds 2^m."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if m > max(max_length.bit_length(), 64):
        raise _guard_error(f"2^{m}", max_length)
    length = 1 << m
    _check_length(length, max_length)
    return length


def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _spectrum_obj(path: str):
    """(spectrum JSON, partial) of a spectrum file or an output record;
    ``partial`` is the record's "partial" field, None for a bare spectrum."""
    obj = _load_json(path)
    if isinstance(obj, dict) and "spectrum" in obj:
        return obj["spectrum"], obj.get("partial")
    return obj, None


def _check_record_covers(path: str, partial, weight: int) -> None:
    """A record written with --partial P holds the weights 0..P only: refuse
    a command that reads a weight above P rather than read it as zero."""
    if partial is None:
        return
    if not is_int(partial):
        raise ValueError(f"{path}: 'partial' must be an integer or null, got {partial!r}")
    if weight > partial:
        raise ValueError(
            f"{path} is a partial record (weights <= {partial} only);"
            f" this command reads weights up to {weight}"
        )


def _dimension(total: int, den: int) -> int | None:
    """log2 of the mass total / den when it is a power of two, else None."""
    mass, rest = divmod(total, den)
    if rest or mass <= 0 or mass & (mass - 1):
        return None
    return mass.bit_length() - 1


def _record(command: str, input_echo, dimension, spectrum: dict, partial):
    # Weight keys are in increasing order, so the first one past "0" is the
    # smallest positive weight with a nonzero coefficient.
    min_pos = next((int(w) for w in spectrum["coeffs"] if w != "0"), None)
    return {
        "command": command,
        "input": input_echo,
        "length": spectrum["n"],
        "dimension": dimension,
        "min_positive_weight": min_pos,
        "partial": partial,
        "spectrum": spectrum,
    }


def _parse_rate(text: str) -> float:
    # float() raises OverflowError on a rate beyond the float range, e.g. 1e400.
    try:
        exact = _as_fraction(text)
        rate = float(exact)
    except (ValueError, OverflowError):
        raise ValueError(f"bad rate {text!r}: use a float or p/q") from None
    # The exact rate, not its float: 1.00000000000000001 rounds to 1.0.
    if not 0 < exact <= 1:
        raise ValueError(f"bad rate {text!r}: must be in (0, 1]")
    # float() rounds a positive rate below the float range, e.g. 1e-400, to 0.0.
    if not rate:
        raise ValueError(f"bad rate {text!r}: below the smallest positive float")
    return rate


def _max_weight(partial: int | None, length: int) -> int:
    """The highest output weight to compute: the --partial W, else ``length``."""
    if partial is None:
        return length
    if not 0 <= partial <= length:
        raise ValueError(f"--partial {partial} outside 0..{length}")
    return partial


def _tree_record(args, command: str, tree, echo, max_weight: int) -> dict:
    """The record of rm and tree: the tree's weights up to ``max_weight``,
    with ``echo`` as the record's input, and its generator matrix under
    --emit-generator."""
    from .codetree import ensemble_wef_int, generator_matrix

    den, nums = ensemble_wef_int(tree, max_weight)
    spectrum = spectrum_to_json(tree.length, den, nums)
    record = _record(command, echo, tree.dimension, spectrum, args.partial)
    if args.emit_generator:
        record["generator"] = generator_matrix(tree).to_json_dict()
    return record


def _cmd_rm(args) -> dict:
    max_weight = _max_weight(args.partial, _tree_length(args.m, args.max_length))
    tree = _self.rm_tree(args.r, args.m)
    echo = {"rm": {"r": args.r, "m": args.m}}
    return _tree_record(args, "rm", tree, echo, max_weight)


def _cmd_tree(args) -> dict:
    from .codetree import tree_json_depth, tree_to_json_dict

    obj = _load_json(args.tree_file)
    length = _tree_length(tree_json_depth(obj), args.max_length)
    max_weight = _max_weight(args.partial, length)
    tree = _self.tree_from_json_dict(obj)
    return _tree_record(args, "tree", tree, tree_to_json_dict(tree), max_weight)


def _check_declared_length(obj, factor: int, max_length: int) -> None:
    """Guard the length ``factor * n`` that a spectrum or matrix file
    declares, before its coefficients or rows are built."""
    n = obj.get("n") if isinstance(obj, dict) else None
    if is_int(n):
        _check_length(factor * n, max_length)


def _cmd_combine(args) -> dict:
    u_obj, u_partial = _spectrum_obj(args.u_file)
    v_obj, v_partial = _spectrum_obj(args.v_file)
    for obj in (u_obj, v_obj):
        _check_declared_length(obj, 2, args.max_length)
    u_den, u_nums, u_echo = spectrum_from_json(u_obj, args.partial)
    v_den, v_nums, v_echo = spectrum_from_json(v_obj, args.partial)
    n = len(u_nums) - 1
    if len(v_nums) - 1 != n:
        raise ValueError(f"component lengths differ: {n} vs {len(v_nums) - 1}")
    length = 2 * n
    echo = {"u": u_echo, "v": v_echo}
    max_weight = _max_weight(args.partial, length)
    k = min(max_weight, n)
    _check_record_covers(args.u_file, u_partial, k)
    _check_record_covers(args.v_file, v_partial, k)
    den, nums = combine_int(n, (u_den, u_nums), (v_den, v_nums), max_weight)
    if args.partial is None and u_partial is None and v_partial is None:
        dimension = _dimension(sum(nums), den)
    else:
        dimension = None
    spectrum = spectrum_to_json(length, den, nums)
    return _record("combine", echo, dimension, spectrum, args.partial)


def _cmd_oracle(args) -> dict:
    from .oracle import BinaryMatrix, ensemble_wef_exhaustive, ensemble_wef_montecarlo

    g0_obj = _load_json(args.g0_file)
    g1_obj = _load_json(args.g1_file)
    for obj in (g0_obj, g1_obj):
        _check_declared_length(obj, 2, args.max_length)
    G0 = BinaryMatrix.from_json_dict(g0_obj)
    G1 = BinaryMatrix.from_json_dict(g1_obj)
    echo = {"g0": G0.to_json_dict(), "g1": G1.to_json_dict(), "mode": args.mode}
    if args.mode == "exhaustive":
        enum, stderrs = ensemble_wef_exhaustive(G0, G1), None
    else:
        echo["samples"] = args.samples
        echo["seed"] = args.seed
        enum, stderrs = ensemble_wef_montecarlo(G0, G1, args.samples, args.seed)
    den, nums = common_denominator(enum.coeffs)
    spectrum = spectrum_to_json(enum.length, den, nums)
    record = _record("oracle", echo, _dimension(sum(nums), den), spectrum, None)
    if stderrs is not None:
        record["stderr"] = {
            str(w): stderrs[w] for w, c in enumerate(enum.coeffs) if c or stderrs[w]
        }
    return record


def _cmd_bound(args) -> dict:
    from .bounds import ChannelPoint

    obj, partial = _spectrum_obj(args.spectrum_file)
    _check_declared_length(obj, 1, args.max_length)
    den, nums, spectrum = spectrum_from_json(obj)
    channel = ChannelPoint(rate=_parse_rate(args.rate), ebn0_db=args.ebn0)
    n = len(nums) - 1
    if not 1 <= args.truncate <= n:
        raise ValueError(f"truncate {args.truncate} outside 1..{n}")
    _check_record_covers(args.spectrum_file, partial, args.truncate)
    value = _self.truncated_union_bound((den, nums), args.truncate, channel)
    dimension = _dimension(sum(nums), den) if partial is None else None
    # The echoed spectrum of a partial record is partial too.
    record = _record("bound", {"spectrum": spectrum}, dimension, spectrum, partial)
    record["bound"] = {
        "rate": channel.rate,
        "ebn0_db": channel.ebn0_db,
        "truncate": args.truncate,
        "value": value,
    }
    return record


def _print_csv(record: dict, out) -> None:
    """One row per weight of the record's spectrum, whose keys are in
    increasing order, with the Monte Carlo standard error when there is one."""
    stderrs = record.get("stderr")
    print("weight,coefficient" + ("" if stderrs is None else ",stderr"), file=out)
    for w, text in record["spectrum"]["coeffs"].items():
        tail = "" if stderrs is None else f",{stderrs.get(w, 0.0)!r}"
        print(f"{w},{text}{tail}", file=out)


def _print_poly(record: dict, out) -> None:
    """The record's spectrum as a polynomial, then its generator rows if it
    has them; a bound record prints its value alone."""
    if "bound" in record:
        print(repr(record["bound"]["value"]), file=out)
        return
    print(render_poly(record["spectrum"]["coeffs"]), file=out)
    for row in record.get("generator", {}).get("rows", ()):
        print(row, file=out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plotkin-wef",
        description="Exact ensemble weight enumerators for Plotkin-style constructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_partial(p):
        p.add_argument("--partial", type=int, default=None, metavar="W",
                       help="compute and emit only weights <= W")

    def add_common(p):
        p.add_argument(
            "--format",
            choices=("poly", "json", "csv"),
            default="poly",
            help="output format (default: poly)",
        )
        # None here; main() reads the environment default on every call.
        p.add_argument(
            "--max-length",
            type=int,
            default=None,
            help=f"size guard (default {DEFAULT_MAX_LENGTH}, env {MAX_LENGTH_ENV})",
        )

    p_rm = sub.add_parser("rm", help="spectrum of the order-r depth-m tree ensemble")
    p_rm.add_argument("r", type=int)
    p_rm.add_argument("m", type=int)
    add_partial(p_rm)
    add_common(p_rm)
    # rm shares tree's _tree_record, without its --emit-generator.
    p_rm.set_defaults(handler=_cmd_rm, emit_generator=False)

    p_tree = sub.add_parser("tree", help="spectrum of a tree given as JSON")
    p_tree.add_argument("tree_file")
    p_tree.add_argument("--emit-generator", action="store_true",
                        help="also emit the identity-permutation generator matrix")
    add_partial(p_tree)
    add_common(p_tree)
    p_tree.set_defaults(handler=_cmd_tree)

    p_comb = sub.add_parser("combine", help="combine two component spectra")
    p_comb.add_argument("u_file", help="spectrum JSON of the code supplying u")
    p_comb.add_argument("v_file", help="spectrum JSON of the code supplying v")
    add_partial(p_comb)
    add_common(p_comb)
    p_comb.set_defaults(handler=_cmd_combine)

    p_or = sub.add_parser("oracle", help="ground-truth spectra from generator matrices")
    p_or.add_argument("g0_file", help="generator JSON of the code supplying u")
    p_or.add_argument("g1_file", help="generator JSON of the code supplying v")
    p_or.add_argument("--mode", choices=("exhaustive", "montecarlo"),
                      default="exhaustive")
    p_or.add_argument("--samples", type=int, default=1000)
    p_or.add_argument("--seed", type=int, default=0)
    add_common(p_or)
    p_or.set_defaults(handler=_cmd_oracle)

    p_bound = sub.add_parser("bound", help="truncated union bound from a spectrum")
    p_bound.add_argument("spectrum_file")
    p_bound.add_argument("--rate", required=True, help="code rate, float or p/q")
    p_bound.add_argument("--ebn0", type=float, required=True, help="Eb/N0 in dB")
    p_bound.add_argument("--truncate", type=int, required=True, metavar="W")
    add_common(p_bound)
    p_bound.set_defaults(handler=_cmd_bound)

    return parser


# Building the parser costs about a millisecond; parse_args leaves it
# unchanged, so one per process serves every call of main().
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    # Exact coefficients have any number of digits, so the length guard is
    # the only size control; callers in the same process keep their limit.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _main(argv) -> int:
    args = _parser().parse_args(argv)
    started = time.perf_counter()
    try:
        if args.max_length is None:
            args.max_length = _max_length_default()
        if args.max_length < 1:
            raise ValueError(f"the length guard must be at least 1, got {args.max_length}")
        record = args.handler(args)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 3
    except OverflowError as exc:
        # A size no list index can hold, e.g. a guard raised to 2**65 and a
        # matrix declaring n = 2**64 for the Monte Carlo oracle.
        print(f"error: size out of range ({exc})", file=sys.stderr)
        return 3
    except RecursionError:
        # A tree deeper than the interpreter's stack allows, e.g. rm with a
        # depth in the thousands under a raised --max-length.
        print(
            f"error: too deep to build or evaluate within the recursion limit"
            f" ({sys.getrecursionlimit()})",
            file=sys.stderr,
        )
        return 3
    # json.JSONDecodeError is a ValueError.
    except (ValueError, TypeError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        dump_json(record, sys.stdout)
        print()
    elif args.format == "csv":
        _print_csv(record, sys.stdout)
    else:
        _print_poly(record, sys.stdout)
    print(f"# elapsed {time.perf_counter() - started:.6f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
