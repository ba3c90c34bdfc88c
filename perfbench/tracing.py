"""Spans around the public entry points of each layer, for the traced run.

The tracer replaces module attributes (``cli.ensemble_wef``,
``codetree.combine``, ``kernel.combine_numerators``, ...) with wrappers that
record a span (name, start, end, parent, job) and puts the originals back on
``uninstall``.  An entry point that no longer exists is reported as absent;
the run goes on.  Spans stay in memory until the run ends.

Layer metrics are computed per cycle from the spans, in seconds per cycle
(run.py scales them to reference seconds); ``self`` time is a span's
duration minus its child spans'.  Counts marked computed in ``COMPUTED``
follow from the inputs and outputs alone and repeat exactly for a given seed.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from functools import lru_cache
from importlib import import_module

from checks import cells

# (span name, module, attribute path)
ENTRY_POINTS = (
    ("codetree.build", "plotkin_wef.cli", "rm_tree"),
    ("codetree.build", "plotkin_wef.cli", "tree_from_json_dict"),
    ("codetree.ensemble_wef", "plotkin_wef.cli", "ensemble_wef"),
    ("plotkin.combine", "plotkin_wef.cli", "combine"),
    ("plotkin.combine", "plotkin_wef.codetree", "combine"),
    ("plotkin.single_weight", "plotkin_wef.cli", "combine_single_weight"),
    ("combinatorics.shared_table", "plotkin_wef.plotkin", "shared_table"),
    ("kernel", "plotkin_wef.kernel", "combine_numerators"),
    ("kernel", "plotkin_wef.kernel", "single_weight_numerator"),
    ("enumerator.from_json", "plotkin_wef.enumerator", "WeightEnumerator.from_json_dict"),
    ("enumerator.format_poly", "plotkin_wef.cli", "format_poly"),
    ("bounds.union_bound", "plotkin_wef.cli", "truncated_union_bound"),
)

# Per-layer metric -> (unit, how it is obtained).
LAYER_METRICS = {
    "kernel.s": ("s", "measured"),
    "kernel.calls": ("count", "measured"),
    "kernel.share": ("ratio", "measured"),
    "plotkin.combine_s": ("s", "measured"),
    "plotkin.combine_calls": ("count", "measured"),
    "plotkin.single_weight_s": ("s", "measured"),
    "plotkin.single_weight_calls": ("count", "measured"),
    "plotkin.self_s": ("s", "measured"),
    "plotkin.cells": ("count", "computed"),
    "plotkin.ns_per_cell": ("ns", "measured"),
    "codetree.build_s": ("s", "measured"),
    "codetree.ensemble_wef_s": ("s", "measured"),
    "codetree.nodes": ("count", "computed"),
    "codetree.distinct_nodes": ("count", "computed"),
    "codetree.self_s": ("s", "measured"),
    "codetree.memo_ratio": ("ratio", "measured"),
    "codetree.hash_s": ("s", "measured"),
    "combinatorics.shared_table_s": ("s", "measured"),
    "combinatorics.table_rows": ("count", "computed"),
    "combinatorics.table_mib": ("MiB", "computed"),
    "enumerator.from_json_s": ("s", "measured"),
    "enumerator.format_poly_s": ("s", "measured"),
    "enumerator.coeff_bits_max": ("bits", "computed"),
    "cli.self_s": ("s", "measured"),
    "cli.out_bytes": ("bytes", "computed"),
    "bounds.union_bound_s": ("s", "measured"),
    "trace.overhead_ratio": ("ratio", "measured"),
}
COMPUTED = {name for name, (_, kind) in LAYER_METRICS.items() if kind == "computed"}

# Metrics that need a given span name; absent when none of its entry points exist.
_NEEDS = {
    "kernel": ("kernel.s", "kernel.calls", "kernel.share"),
    "plotkin.combine": ("plotkin.combine_s", "plotkin.combine_calls", "codetree.memo_ratio"),
    "plotkin.single_weight": ("plotkin.single_weight_s", "plotkin.single_weight_calls"),
    "codetree.build": ("codetree.build_s", "codetree.hash_s"),
    "codetree.ensemble_wef": ("codetree.ensemble_wef_s", "codetree.self_s",
                              "codetree.memo_ratio"),
    "combinatorics.shared_table": ("combinatorics.shared_table_s",),
    "enumerator.from_json": ("enumerator.from_json_s",),
    "enumerator.format_poly": ("enumerator.format_poly_s",),
    "bounds.union_bound": ("bounds.union_bound_s",),
}


def _info(name, args, result):
    """What a span keeps of its call: lengths for cell counts, built trees."""
    try:
        if name == "plotkin.combine":
            return (args[0].length, None)
        if name == "plotkin.single_weight":
            return (args[0].length, args[2])
        if name == "codetree.ensemble_wef":
            return args[0].length
    except (AttributeError, IndexError):
        return None
    if name == "codetree.build":
        return result
    return None


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "info", "child_time")

    def __init__(self, name, start, parent, job):
        self.name, self.start, self.parent, self.job = name, start, parent, job
        self.end = start
        self.info = None
        self.child_time = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.job = None
        self._stack: list[Span] = []
        self._restore = []
        self.present: set[str] = set()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
                span.info = _info(name, args, result)
                return result
        return traced

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent, self.job)
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = time.perf_counter()
            if parent is not None:
                parent.child_time += span.duration

    def install(self) -> None:
        for name, module_name, path in ENTRY_POINTS:
            try:
                owner = import_module(module_name)
                *parents, attr = path.split(".")
                for p in parents:
                    owner = getattr(owner, p)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                continue
            is_class = isinstance(owner, type)
            raw = owner.__dict__[attr] if is_class else fn
            wrapped = self._wrap(name, fn)
            setattr(owner, attr, staticmethod(wrapped) if is_class else wrapped)
            self._restore.append((owner, attr, raw))
            self.present.add(name)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)


def absent_metrics(present: set[str]) -> set[str]:
    out = set()
    for span_name, metrics in _NEEDS.items():
        if span_name not in present:
            out.update(metrics)
    return out


@lru_cache(maxsize=None)
def full_cells(n: int) -> int:
    return sum(cells(n, w) for w in range(2 * n + 1))


def tree_counts(m: int, mask: int) -> tuple[int, int]:
    """(nodes, structurally distinct subtrees) of the depth-m tree ``mask``."""
    distinct = set()
    for depth in range(m + 1):
        size = 1 << depth
        full = (1 << size) - 1
        for base in range(0, 1 << m, size):
            distinct.add((depth, (mask >> base) & full))
    return (1 << (m + 1)) - 1, len(distinct)


def memo_walk_seconds(tree) -> float:
    """Time of one dict lookup and insert per node visit, as a per-call memo does."""
    started = time.perf_counter()
    seen = {}

    def visit(t):
        if t in seen:
            return
        left = getattr(t, "left", None)
        if left is not None:
            visit(left)
            visit(t.right)
        seen[t] = None

    visit(tree)
    return time.perf_counter() - started


def table_size() -> tuple[int, float] | None:
    """Rows and computed size in MiB of the process-wide binomial table."""
    try:
        from plotkin_wef.combinatorics import shared_table
        rows = shared_table(0).rows
    except (ImportError, AttributeError):
        return None
    size = sys.getsizeof(rows)
    for row in rows:
        size += sys.getsizeof(row) + sum(sys.getsizeof(c) for c in row)
    return len(rows), size / 2**20


def cycle_metrics(spans: list[Span], jobs, stats: dict) -> dict[str, float]:
    """Layer metrics of one traced cycle.

    ``jobs`` are the cycle's jobs; ``stats`` maps a job key to the computed
    stats of its output (coefficient bits, stdout bytes).
    """
    total = {}
    count = {}
    self_time = {}
    for s in spans:
        total[s.name] = total.get(s.name, 0.0) + s.duration
        count[s.name] = count.get(s.name, 0) + 1
        self_time[s.name] = self_time.get(s.name, 0.0) + s.self_time
    get = total.get
    job_time = get("cli.main", 0.0)
    n_cells = 0
    internal = 0
    memo_combines = 0
    hash_s = 0.0
    for s in spans:
        if s.name in ("plotkin.combine", "plotkin.single_weight") and s.info:
            n, w = s.info
            n_cells += full_cells(n) if w is None else cells(n, w)
            if s.parent is not None and s.parent.name == "codetree.ensemble_wef":
                memo_combines += 1
        elif s.name == "codetree.ensemble_wef" and s.info:
            internal += s.info - 1
        elif s.name == "codetree.build" and s.info is not None:
            hash_s += memo_walk_seconds(s.info)
    nodes = distinct = 0
    for job in jobs:
        if job.tree is not None:
            a, b = tree_counts(*job.tree)
            nodes += a
            distinct += b
    plotkin_s = get("plotkin.combine", 0.0) + get("plotkin.single_weight", 0.0)
    return {
        "kernel.s": get("kernel", 0.0),
        "kernel.calls": count.get("kernel", 0),
        "kernel.share": get("kernel", 0.0) / job_time if job_time else 0.0,
        "plotkin.combine_s": get("plotkin.combine", 0.0),
        "plotkin.combine_calls": count.get("plotkin.combine", 0),
        "plotkin.single_weight_s": get("plotkin.single_weight", 0.0),
        "plotkin.single_weight_calls": count.get("plotkin.single_weight", 0),
        "plotkin.self_s": (self_time.get("plotkin.combine", 0.0)
                           + self_time.get("plotkin.single_weight", 0.0)),
        "plotkin.cells": n_cells,
        "plotkin.ns_per_cell": plotkin_s * 1e9 / n_cells if n_cells else 0.0,
        "codetree.build_s": get("codetree.build", 0.0),
        "codetree.ensemble_wef_s": get("codetree.ensemble_wef", 0.0),
        "codetree.nodes": nodes,
        "codetree.distinct_nodes": distinct,
        "codetree.self_s": self_time.get("codetree.ensemble_wef", 0.0),
        "codetree.memo_ratio": 1.0 - memo_combines / internal if internal else 0.0,
        "codetree.hash_s": hash_s,
        "enumerator.from_json_s": get("enumerator.from_json", 0.0),
        "enumerator.format_poly_s": get("enumerator.format_poly", 0.0),
        "enumerator.coeff_bits_max": max((st.get("coeff_bits", 0) for st in stats.values()),
                                         default=0),
        "cli.self_s": self_time.get("cli.main", 0.0),
        "cli.out_bytes": sum(st.get("out_bytes", 0) for st in stats.values()),
        "bounds.union_bound_s": get("bounds.union_bound", 0.0),
    }
