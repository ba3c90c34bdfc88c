#!/usr/bin/env python3
"""Regenerate perfbench/reference.json from the program in this checkout.

    python3 perfbench/make_reference.py

Runs every job of the default seed (all cycles of all workloads) and the rm
jobs whose output does not depend on the seed, and cross-checks each output
before storing its digest:

* the checks every benchmark run makes, with more literal-sum weights;
* tree and rm spectra: the literal sum at the root over the two children's
  spectra, which separate CLI runs compute;
* rm low-weight prefixes: every weight by literal sum over the full
  spectra of the children;
* at small sizes, ``exact_wef_bruteforce`` and ``ensemble_wef_exhaustive``
  against the CLI, and A_0 = 1 and mass 2^k on every tree.

The file is written only when every check passes.  It must be regenerated
whenever the workloads change.  Takes a few minutes.
"""

from __future__ import annotations

import io
import json
import random
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout

import run
from checks import Checker, cells, literal_weight, parse_spectrum
from workloads import MAX_CYCLES, SIZES, WORKLOADS, generate

WORK = run.WORK / "reference"
PREFIX_WEIGHT = SIZES["full"]["rm_max_w"]


class Mismatch(Exception):
    pass


def cli_text(cli, argv) -> str:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise Mismatch(f"{' '.join(argv)} exited {code}")
    return out.getvalue()


def spectrum_of(cli, argv):
    text = cli_text(cli, [*argv, "--format", "json"])
    return parse_spectrum(json.loads(text)["spectrum"])


def child_trees(cli, job, tag: str):
    """Full spectra of the root's two subtrees, from separate CLI runs."""
    m, mask = job.tree
    if job.kind == "rm":
        r = int(job.argv[1])
        return (spectrum_of(cli, ["rm", str(r - 1), str(m - 1)]),
                spectrum_of(cli, ["rm", str(r), str(m - 1)]))
    half = 1 << (m - 1)
    spectra = []
    for side, sub in (("u", mask & ((1 << half) - 1)), ("v", mask >> half)):
        path = WORK / f"{tag}{side}.json"
        path.write_text(json.dumps({"m": m - 1, "active": [i for i in range(half) if sub >> i & 1]}))
        spectra.append(spectrum_of(cli, ["tree", str(path)]))
    return spectra


def check_root(out, u, v, n: int, weights, label: str) -> None:
    for w in weights:
        if out[w] != literal_weight(u, v, n, w):
            raise Mismatch(f"{label}: A_{w} differs from the literal sum over the children")


def sampled(rng, n: int, top: int, count: int, cap: int) -> list[int]:
    fit = [w for w in range(top + 1) if cells(n, w) <= cap]
    return sorted(rng.sample(fit, min(count, len(fit))))


def workload_digests(cli, workload: str, log) -> tuple[dict, dict]:
    checker = Checker(weights=8, cell_cap=5000)
    cycles = generate(workload, run.DEFAULT_SEED, str(WORK / workload))
    digests, rm_full = {}, {}
    for jobs in cycles:
        for job in jobs:
            texts = [cli_text(cli, job.argv)]
            if job.bound_argv is not None:
                with open(job.out_path, "w", encoding="utf-8") as fh:
                    fh.write(texts[0])
                texts.append(cli_text(cli, job.bound_argv))
            problems, stats = checker.check(job, texts)
            if problems:
                raise Mismatch(f"{workload} {job.key}: {'; '.join(problems)}")
            digest = stats["digest"]
            digests[job.key] = digest
            if job.kind in ("tree", "rm"):
                out = parse_spectrum(json.loads(texts[0])["spectrum"])
                u, v = child_trees(cli, job, f"{workload}-{job.key.replace('/', '')}")
                n = len(u) - 1
                rng = random.Random(job.key)
                check_root(out, u, v, n, sampled(rng, n, 2 * n, 6, 5000), job.key)
            if job.kind == "rm":
                rm_full[f"{job.argv[1]} {job.argv[2]}"] = digest
        log(f"# {workload}: {len(digests)} jobs checked")
    return digests, rm_full


def rm_prefixes(cli, log) -> dict:
    prefixes = {}
    for r, m in SIZES["full"]["rm_partial"]:
        out = spectrum_of(cli, ["rm", str(r), str(m), "--partial", str(PREFIX_WEIGHT)])
        u = spectrum_of(cli, ["rm", str(r - 1), str(m - 1)])
        v = spectrum_of(cli, ["rm", str(r), str(m - 1)])
        check_root(out, u, v, 1 << (m - 1), range(PREFIX_WEIGHT + 1), f"rm {r} {m} prefix")
        for w in (PREFIX_WEIGHT // 4, PREFIX_WEIGHT // 2):
            if spectrum_of(cli, ["rm", str(r), str(m), "--partial", str(w)])[: w + 1] != out[: w + 1]:
                raise Mismatch(f"rm {r} {m} --partial {w} is not a prefix of --partial {PREFIX_WEIGHT}")
        prefixes[f"{r} {m}"] = [str(c) for c in out[: PREFIX_WEIGHT + 1]]
        log(f"# rm {r} {m}: weights 0..{PREFIX_WEIGHT} match the literal sum")
    return prefixes


def small_oracles(cli, log) -> None:
    """The CLI against brute force and the all-permutation oracle at small sizes."""
    from plotkin_wef import (BinaryMatrix, ensemble_wef_exhaustive,
                             exact_wef_bruteforce, generator_matrix, rm_tree,
                             tree_from_active_set)

    rng = random.Random(2024)
    path_u, path_v = WORK / "oracle_u.json", WORK / "oracle_v.json"
    cases = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(16):
            n = rng.randint(2, 5)
            g0 = BinaryMatrix(n, tuple(rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 3))))
            g1 = BinaryMatrix(n, tuple(rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 3))))
            path_u.write_text(json.dumps(exact_wef_bruteforce(g0).to_json_dict()))
            path_v.write_text(json.dumps(exact_wef_bruteforce(g1).to_json_dict()))
            got = spectrum_of(cli, ["combine", str(path_u), str(path_v)])
            if tuple(got) != ensemble_wef_exhaustive(g0, g1).coeffs:
                raise Mismatch(f"combine differs from ensemble_wef_exhaustive at n={n}")
            cases += 1
        # These RM codes are the same for every interleaver, so the ensemble
        # is the code itself.
        for m in range(1, 5):
            for r in sorted({0, m - 1, m}):
                got = spectrum_of(cli, ["rm", str(r), str(m)])
                want = exact_wef_bruteforce(generator_matrix(rm_tree(r, m)))
                if tuple(got) != want.coeffs:
                    raise Mismatch(f"rm {r} {m} differs from exact_wef_bruteforce")
                cases += 1
        # Depth-2 trees: the children's interleavers have length 1, so the
        # root's exhaustive average over its children's codes is exact.
        for _ in range(8):
            active = sorted(rng.sample(range(4), rng.randint(1, 4)))
            path_u.write_text(json.dumps({"m": 2, "active": active}))
            got = spectrum_of(cli, ["tree", str(path_u)])
            halves = [[i for i in active if i < 2], [i - 2 for i in active if i >= 2]]
            g0, g1 = (generator_matrix(tree_from_active_set(1, h)) for h in halves)
            want = ensemble_wef_exhaustive(g0, g1)
            if tuple(got) != want.coeffs:
                raise Mismatch(f"tree {active} differs from ensemble_wef_exhaustive")
            cases += 1
    log(f"# {cases} small cases match exact_wef_bruteforce / ensemble_wef_exhaustive")


def main() -> int:
    cli = run.load_cli()
    WORK.mkdir(parents=True, exist_ok=True)
    log = print
    try:
        small_oracles(cli, log)
        reference = {"seed": run.DEFAULT_SEED, "cycles": MAX_CYCLES, "digests": {},
                     "rm_full": {}, "rm_prefix": rm_prefixes(cli, log)}
        for workload in WORKLOADS:
            digests, rm_full = workload_digests(cli, workload, log)
            reference["digests"][workload] = digests
            reference["rm_full"].update(rm_full)
    except Mismatch as exc:
        print(f"error: {exc}; reference not written", file=sys.stderr)
        return 1
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    log(f"# wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
