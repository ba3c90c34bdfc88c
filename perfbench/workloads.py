"""Seeded inputs and job lists for the three benchmark workloads.

Everything here uses the standard library only (``random.Random`` and
``math.comb``), never ``plotkin_wef``: the program under test receives only
the generated files and command lines.

A workload is a list of *cycles*.  A cycle is a fixed list of job shapes
(command, sizes, coefficient bits); the seed and the cycle index choose the
random content.  The harness runs whole cycles only, so the mix of shapes,
and with it every percentile, is the same in every run.  The shapes are
ordered so that the median and the 90th percentile of job times fall inside a
block of identical shapes, not on the edge between two shapes.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from functools import lru_cache

WORKLOADS = ("combine-dense", "tree-full", "low-weight")

# Distinct input sets per workload and seed; later cycles reuse them in turn.
MAX_CYCLES = 8

SIZES = {
    "full": {
        "dense_n": (128, 256),
        "dense_bits": 320,
        "tree_m": (7, 8, 9),
        "rm_full": ((2, 7), (3, 8), (4, 9)),
        "rm_partial": ((3, 10), (5, 10), (8, 10)),
        "rm_max_w": 32,
        "partial_n": (512, 1024),
        "partial_w": 64,
    },
    # Same shapes at toy sizes, for the self-test.
    "tiny": {
        "dense_n": (6, 10),
        "dense_bits": 40,
        "tree_m": (3, 4, 5),
        "rm_full": ((1, 3), (2, 4), (2, 5)),
        "rm_partial": ((1, 5), (2, 5), (3, 5)),
        "rm_max_w": 8,
        "partial_n": (12, 20),
        "partial_w": 10,
    },
}


@dataclass
class Job:
    """One closed-loop job: one CLI call, optionally followed by ``bound``.

    ``argv`` is the CLI argument list.  ``bound_argv`` (tree-full only) is run
    right after ``argv`` on the spectrum file ``out_path`` that the harness
    writes from the first call's stdout.  ``check`` holds what the output
    check needs; ``tree`` is (m, bitmask of active leaves) for tree inputs.
    """

    key: str
    kind: str
    argv: list[str]
    check: dict = field(default_factory=dict)
    tree: tuple[int, int] | None = None
    out_path: str | None = None
    bound_argv: list[str] | None = None


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj))


def _spectrum_json(coeffs) -> dict:
    return {"n": len(coeffs) - 1, "coeffs": {str(j): str(c) for j, c in enumerate(coeffs)}}


@lru_cache(maxsize=None)
def binomial_row(n: int) -> tuple[int, ...]:
    return tuple(math.comb(n, j) for j in range(n + 1))


def thinned_row(n: int, rng: random.Random) -> list[int]:
    """Integer spectrum with full support and binomial-size coefficients."""
    return [rng.randint(1, c) for c in binomial_row(n)]


def rational_row(n: int, bits: int, rng: random.Random) -> list[str]:
    """Full-support spectrum whose coefficients share one seeded denominator.

    Written as unreduced "p/q" strings; the program reduces them on input.
    """
    den = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
    return [f"{rng.randint(1, c * den)}/{den}" for c in binomial_row(n)]


def polar_active_set(m: int, k: int, rng: random.Random) -> list[int]:
    """k leaves of a depth-m tree chosen polar-style.

    Leaves are ranked by their polarization weight (sum of 2^(j/4) over the
    set bits j of the index) plus unit Gaussian noise, and the k best are
    active.  The noise makes each draw a different tree; the ranking keeps
    the cost of equal-size trees within a few per cent of each other.
    """
    beta = 2.0 ** 0.25
    scored = []
    for i in range(1 << m):
        pw = sum(beta**j for j in range(m) if i >> j & 1)
        scored.append((pw + rng.gauss(0.0, 1.0), i))
    scored.sort()
    return sorted(i for _, i in scored[len(scored) - k:])


def rm_active_mask(r: int, m: int) -> int:
    """Leaf i of the order-r depth-m Reed-Muller tree is active iff popcount(i) >= m - r."""
    return sum(1 << i for i in range(1 << m) if bin(i).count("1") >= m - r)


def _combine_dense(rng, cycle, work, sz) -> list[Job]:
    small, big = sz["dense_n"]
    bits = sz["dense_bits"]
    # Six n=small jobs (three integer, three rational) and two n=big jobs:
    # the median is an n=small rational job, the 90th percentile an n=big job.
    shapes = [
        (small, "rat"), (small, "int"), (big, "rat"), (small, "rat"),
        (small, "int"), (small, "rat"), (big, "int"), (small, "int"),
    ]
    jobs = []
    for j, (n, kind) in enumerate(shapes):
        if kind == "int":
            u, v = binomial_row(n), thinned_row(n, rng)
        else:
            u, v = rational_row(n, bits, rng), rational_row(n, bits, rng)
        u_path = os.path.join(work, f"c{cycle}j{j}u.json")
        v_path = os.path.join(work, f"c{cycle}j{j}v.json")
        _write_json(u_path, _spectrum_json(u))
        _write_json(v_path, _spectrum_json(v))
        jobs.append(Job(
            key=f"c{cycle}/j{j}",
            kind="combine",
            argv=["combine", u_path, v_path, "--format", "json"],
            check={"u": u_path, "v": v_path, "n": n},
        ))
    return jobs


def _tree_full(rng, cycle, work, sz) -> list[Job]:
    m7, m8, m9 = sz["tree_m"]
    (r_a, m_a), (r_b, m_b), (r_c, m_c) = sz["rm_full"]
    # Twelve jobs: the median is a depth-m8 tree, the 90th percentile one of
    # the three depth-m9 trees.
    shapes = [
        ("tree", m8, 0.5), ("rm", r_a, m_a), ("tree", m7, 0.25), ("tree", m9, 0.5),
        ("rm", r_b, m_b), ("tree", m8, 0.25), ("tree", m7, 0.75), ("tree", m9, 0.5),
        ("tree", m8, 0.5), ("rm", r_c, m_c), ("tree", m8, 0.75), ("tree", m9, 0.5),
    ]
    jobs = []
    for j, (kind, a, b) in enumerate(shapes):
        out_path = os.path.join(work, f"c{cycle}j{j}out.json")
        if kind == "rm":
            r, m = a, b
            mask = rm_active_mask(r, m)
            argv = ["rm", str(r), str(m), "--format", "json"]
        else:
            m = a
            active = polar_active_set(m, int(b * (1 << m)), rng)
            mask = sum(1 << i for i in active)
            tree_path = os.path.join(work, f"c{cycle}j{j}tree.json")
            _write_json(tree_path, {"m": m, "active": active})
            argv = ["tree", tree_path, "--format", "json"]
        n, k = 1 << m, bin(mask).count("1")
        ebn0 = f"{rng.uniform(1.0, 4.0):.2f}"
        truncate = str(min(n, rng.randint(8, 24) + min_distance(m, mask)))
        jobs.append(Job(
            key=f"c{cycle}/j{j}",
            kind=kind,
            argv=argv,
            check={"n": n, "k": k, "ebn0": float(ebn0), "truncate": int(truncate)},
            tree=(m, mask),
            out_path=out_path,
            bound_argv=["bound", out_path, "--rate", f"{k}/{n}", "--ebn0", ebn0,
                        "--truncate", truncate, "--format", "json"],
        ))
    return jobs


def _low_weight(rng, cycle, work, sz) -> list[Job]:
    half, full = sz["partial_n"]
    (r_a, m_a), (r_b, m_b), (r_c, m_c) = sz["rm_partial"]
    max_w, partial_w = sz["rm_max_w"], sz["partial_w"]
    # Nine jobs: the median is one of the two integer combines at the larger
    # length, the 90th percentile one of the two highest-order rm jobs.
    shapes = [
        ("combine", half, "int"), ("rm", r_a, m_a), ("combine", full, "int"),
        ("rm", r_c, m_c), ("combine", half, "rat"), ("rm", r_b, m_b),
        ("combine", full, "int"), ("rm", r_c, m_c), ("combine", full, "rat"),
    ]
    jobs = []
    for j, (kind, a, b) in enumerate(shapes):
        if kind == "rm":
            r, m = a, b
            w = rng.randint(max_w // 4, max_w)
            jobs.append(Job(
                key=f"c{cycle}/j{j}",
                kind="rm-partial",
                argv=["rm", str(r), str(m), "--partial", str(w), "--format", "json"],
                check={"r": r, "m": m, "w": w},
                tree=(m, rm_active_mask(r, m)),
            ))
            continue
        n = a
        if b == "int":
            u, v = binomial_row(n), thinned_row(n, rng)
        else:
            u, v = rational_row(n, 256, rng), rational_row(n, 256, rng)
        u_path = os.path.join(work, f"c{cycle}j{j}u.json")
        v_path = os.path.join(work, f"c{cycle}j{j}v.json")
        _write_json(u_path, _spectrum_json(u))
        _write_json(v_path, _spectrum_json(v))
        jobs.append(Job(
            key=f"c{cycle}/j{j}",
            kind="combine-partial",
            argv=["combine", u_path, v_path, "--partial", str(partial_w), "--format", "json"],
            check={"u": u_path, "v": v_path, "n": n, "w": partial_w},
        ))
    return jobs


_BUILDERS = {
    "combine-dense": _combine_dense,
    "tree-full": _tree_full,
    "low-weight": _low_weight,
}


def min_distance(m: int, mask: int) -> int:
    """Minimum distance of the tree code: min(d_u, 2 d_v) at every branch."""
    def d(depth: int, base: int) -> float:
        if depth == 0:
            return 1 if mask >> base & 1 else math.inf
        half = 1 << (depth - 1)
        return min(d(depth - 1, base), 2 * d(depth - 1, base + half))
    return d(m, 0)


def generate(workload: str, seed: int, work: str, size: str = "full") -> list[list[Job]]:
    """Write every input file of the workload under ``work``; return its cycles."""
    os.makedirs(work, exist_ok=True)
    builder = _BUILDERS[workload]
    cycles = []
    for cycle in range(MAX_CYCLES):
        rng = random.Random(f"{seed}:{workload}:{cycle}")
        cycles.append(builder(rng, cycle, work, SIZES[size]))
    return cycles
