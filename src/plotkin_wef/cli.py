"""Command-line surface: tree spectra, combines, oracles and union bounds.

Output formats: "poly" (human polynomial, the default), "json" (the stable
machine contract) and "csv".  JSON output is byte-identical across identical
invocations; wall-clock timing therefore goes to stderr.

Exit codes: 0 success, 2 usage or parse problems, 3 resource budget exceeded.
The default size guard (4096 coordinates) can be overridden per invocation
with --max-length or globally with the PLOTKIN_WEF_MAX_LENGTH environment
variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections.abc import Callable
from fractions import Fraction

from .bounds import ChannelPoint, truncated_union_bound
from .codetree import (
    ensemble_wef,
    ensemble_wef_prefix,
    generator_matrix,
    rm_tree,
    tree_from_json_dict,
    tree_json_depth,
    tree_to_json_dict,
)
from .enumerator import WeightEnumerator, format_poly, is_int
from .errors import BudgetError
from .oracle import BinaryMatrix, ensemble_wef_exhaustive, ensemble_wef_montecarlo
# combine_single_weight is not called here any more; it stays importable from
# this module because perfbench's tracer looks it up here and its self-test
# fails on a missing per-layer entry point.
from .plotkin import combine, combine_prefix, combine_single_weight  # noqa: F401

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
    obj = _load_json(path)
    if isinstance(obj, dict) and "spectrum" in obj:
        obj = obj["spectrum"]
    return obj


def _load_matrix(path: str) -> BinaryMatrix:
    return BinaryMatrix.from_json_dict(_load_json(path))


def _dimension_from_mass(mass: Fraction) -> int | None:
    if mass.denominator != 1:
        return None
    m = mass.numerator
    if m > 0 and m & (m - 1) == 0:
        return m.bit_length() - 1
    return None


def _spectrum_json(length: int, items) -> dict:
    return {"n": length, "coeffs": {str(w): str(c) for w, c in items if c}}


def _record(command: str, input_echo, length: int, dimension, spectrum_items, partial):
    items = list(spectrum_items)
    min_pos = next((w for w, c in items if w > 0 and c), None)
    return {
        "command": command,
        "input": input_echo,
        "length": length,
        "dimension": dimension,
        "min_positive_weight": min_pos,
        "partial": partial,
        "spectrum": _spectrum_json(length, items),
    }


def _full_items(enum: WeightEnumerator):
    return list(enumerate(enum.coeffs))


def _parse_rate(text: str) -> float:
    try:
        return float(Fraction(text))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad rate {text!r}: use a float or p/q") from None


def _check_partial(partial: int, length: int) -> None:
    if not 0 <= partial <= length:
        raise ValueError(f"--partial {partial} outside 0..{length}")


def _cmd_rm(args) -> tuple[dict, Callable[[], list[str]]]:
    length = _tree_length(args.m, args.max_length)
    tree = rm_tree(args.r, args.m)
    echo = {"rm": {"r": args.r, "m": args.m}}
    if args.partial is not None:
        _check_partial(args.partial, length)
        coeffs = ensemble_wef_prefix(tree, args.partial)
    else:
        coeffs = ensemble_wef(tree).coeffs
    record = _record(
        "rm", echo, length, tree.dimension, enumerate(coeffs), args.partial
    )
    return record, lambda: [_poly_line(length, coeffs)]


def _cmd_tree(args) -> tuple[dict, Callable[[], list[str]]]:
    obj = _load_json(args.tree_file)
    _tree_length(tree_json_depth(obj), args.max_length)
    tree = tree_from_json_dict(obj)
    enum = ensemble_wef(tree)
    record = _record(
        "tree",
        tree_to_json_dict(tree),
        tree.length,
        tree.dimension,
        _full_items(enum),
        None,
    )
    gen = generator_matrix(tree) if args.emit_generator else None
    if gen is not None:
        record["generator"] = gen.to_json_dict()
    return record, lambda: [format_poly(enum), *(gen.to_strings() if gen else ())]


def _check_declared_length(obj, factor: int, max_length: int) -> None:
    """Guard the length ``factor * n`` that a spectrum file declares, before
    its n + 1 coefficients are built."""
    n = obj.get("n") if isinstance(obj, dict) else None
    if is_int(n):
        _check_length(factor * n, max_length)


def _cmd_combine(args) -> tuple[dict, Callable[[], list[str]]]:
    u_obj = _spectrum_obj(args.u_file)
    v_obj = _spectrum_obj(args.v_file)
    for obj in (u_obj, v_obj):
        _check_declared_length(obj, 2, args.max_length)
    u_enum = WeightEnumerator.from_json_dict(u_obj)
    v_enum = WeightEnumerator.from_json_dict(v_obj)
    if u_enum.length != v_enum.length:
        raise ValueError(
            f"component lengths differ: {u_enum.length} vs {v_enum.length}"
        )
    length = 2 * u_enum.length
    echo = {"u": u_enum.to_json_dict(), "v": v_enum.to_json_dict()}
    if args.partial is not None:
        _check_partial(args.partial, length)
        coeffs = combine_prefix(
            u_enum.length, u_enum.coeffs, v_enum.coeffs, args.partial
        )
        dimension = None
    else:
        out = combine(u_enum, v_enum)
        coeffs = out.coeffs
        dimension = _dimension_from_mass(out.total_mass())
    record = _record(
        "combine", echo, length, dimension, enumerate(coeffs), args.partial
    )
    return record, lambda: [_poly_line(length, coeffs)]


def _cmd_oracle(args) -> tuple[dict, Callable[[], list[str]]]:
    G0 = _load_matrix(args.g0_file)
    G1 = _load_matrix(args.g1_file)
    echo = {"g0": G0.to_json_dict(), "g1": G1.to_json_dict(), "mode": args.mode}
    if args.mode == "exhaustive":
        enum = ensemble_wef_exhaustive(G0, G1)
        record = _record(
            "oracle",
            echo,
            enum.length,
            _dimension_from_mass(enum.total_mass()),
            _full_items(enum),
            None,
        )
        return record, lambda: [format_poly(enum)]
    echo["samples"] = args.samples
    echo["seed"] = args.seed
    enum, stderrs = ensemble_wef_montecarlo(G0, G1, args.samples, args.seed)
    record = _record(
        "oracle",
        echo,
        enum.length,
        _dimension_from_mass(enum.total_mass()),
        _full_items(enum),
        None,
    )
    record["stderr"] = {
        str(w): stderrs[w] for w, c in enumerate(enum.coeffs) if c or stderrs[w]
    }
    return record, lambda: [format_poly(enum)]


def _cmd_bound(args) -> tuple[dict, Callable[[], list[str]]]:
    obj = _spectrum_obj(args.spectrum_file)
    _check_declared_length(obj, 1, args.max_length)
    enum = WeightEnumerator.from_json_dict(obj)
    channel = ChannelPoint(rate=_parse_rate(args.rate), ebn0_db=args.ebn0)
    value = truncated_union_bound(enum, args.truncate, channel)
    record = _record(
        "bound",
        {"spectrum": enum.to_json_dict()},
        enum.length,
        _dimension_from_mass(enum.total_mass()),
        _full_items(enum),
        None,
    )
    record["bound"] = {
        "rate": channel.rate,
        "ebn0_db": channel.ebn0_db,
        "truncate": args.truncate,
        "value": value,
    }
    return record, lambda: [repr(value)]


def _poly_line(length: int, coeffs) -> str:
    """The poly form of a length-``length`` spectrum given by its
    coefficients 0..W (W <= length); the weights above W read as zero."""
    padding = (Fraction(0),) * (length + 1 - len(coeffs))
    return format_poly(WeightEnumerator(length, (*coeffs, *padding)))


def _print_csv(record: dict, out) -> None:
    stderrs = record.get("stderr")
    header = "weight,coefficient,stderr" if stderrs is not None else "weight,coefficient"
    print(header, file=out)
    coeffs = record["spectrum"]["coeffs"]
    for w in sorted(int(k) for k in coeffs):
        if stderrs is not None:
            print(f"{w},{coeffs[str(w)]},{stderrs.get(str(w), 0.0)!r}", file=out)
        else:
            print(f"{w},{coeffs[str(w)]}", file=out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plotkin-wef",
        description="Exact ensemble weight enumerators for Plotkin-style constructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_max_length=True):
        p.add_argument(
            "--format",
            choices=("poly", "json", "csv"),
            default="poly",
            help="output format (default: poly)",
        )
        if with_max_length:
            p.add_argument(
                "--max-length",
                type=int,
                default=None,
                help=f"size guard (default {DEFAULT_MAX_LENGTH}, env {MAX_LENGTH_ENV})",
            )

    p_rm = sub.add_parser("rm", help="spectrum of the order-r depth-m tree ensemble")
    p_rm.add_argument("r", type=int)
    p_rm.add_argument("m", type=int)
    p_rm.add_argument("--partial", type=int, default=None, metavar="W",
                      help="compute and emit only weights <= W")
    add_common(p_rm)
    p_rm.set_defaults(handler=_cmd_rm)

    p_tree = sub.add_parser("tree", help="spectrum of a tree given as JSON")
    p_tree.add_argument("tree_file")
    p_tree.add_argument("--emit-generator", action="store_true",
                        help="also emit the identity-permutation generator matrix")
    add_common(p_tree)
    p_tree.set_defaults(handler=_cmd_tree)

    p_comb = sub.add_parser("combine", help="combine two component spectra")
    p_comb.add_argument("u_file", help="spectrum JSON of the code supplying u")
    p_comb.add_argument("v_file", help="spectrum JSON of the code supplying v")
    p_comb.add_argument("--partial", type=int, default=None, metavar="W",
                        help="compute and emit only weights <= W")
    add_common(p_comb)
    p_comb.set_defaults(handler=_cmd_combine)

    p_or = sub.add_parser("oracle", help="ground-truth spectra from generator matrices")
    p_or.add_argument("g0_file", help="generator JSON of the code supplying u")
    p_or.add_argument("g1_file", help="generator JSON of the code supplying v")
    p_or.add_argument("--mode", choices=("exhaustive", "montecarlo"),
                      default="exhaustive")
    p_or.add_argument("--samples", type=int, default=1000)
    p_or.add_argument("--seed", type=int, default=0)
    add_common(p_or, with_max_length=False)
    p_or.set_defaults(handler=_cmd_oracle)

    p_bound = sub.add_parser("bound", help="truncated union bound from a spectrum")
    p_bound.add_argument("spectrum_file")
    p_bound.add_argument("--rate", required=True, help="code rate, float or p/q")
    p_bound.add_argument("--ebn0", type=float, required=True, help="Eb/N0 in dB")
    p_bound.add_argument("--truncate", type=int, required=True, metavar="W")
    add_common(p_bound)
    p_bound.set_defaults(handler=_cmd_bound)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        if getattr(args, "max_length", -1) is None:
            args.max_length = _max_length_default()
        record, human_lines = args.handler(args)
        lines = human_lines() if args.format == "poly" else None
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 3
    except OverflowError as exc:
        # A size no list index can hold, e.g. a matrix declaring n = 2**64
        # for the Monte Carlo oracle, which has no length guard.
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
    except (ValueError, TypeError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(record, indent=2))
    elif args.format == "csv":
        _print_csv(record, sys.stdout)
    else:
        for line in lines:
            print(line)
    print(f"# elapsed {time.perf_counter() - started:.6f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
