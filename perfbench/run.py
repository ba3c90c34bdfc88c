#!/usr/bin/env python3
"""End-to-end benchmark of the plotkin-wef CLI, with a traced per-layer split.

    python3 perfbench/run.py --workload combine-dense --seed 0 --seconds 25 --trace 0

The timed loop is one process without threads, one client in a closed
loop: each job is a call of ``plotkin_wef.cli.main(argv)`` issued after the
previous one returned, with stdout captured.  Inputs are generated from the seed (see workloads.py) and
written as JSON files under ``.bench_work/``.  Every output is checked
(checks.py) between jobs, outside the timed region.  The loop runs whole
cycles of the workload's job list until ``--seconds`` have passed.  Times
are in reference seconds (see speed.py).

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it repeats the first cycle, alternately traced and untraced, and reports the
per-layer metrics (tracing.py).  Lines starting with ``#`` are for people;
the last line is the JSON result.  Exit status 2 means the program's sources
are missing from the checkout.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import tracing
from checks import Checker
from speed import SpeedMeter
from workloads import MAX_CYCLES, WORKLOADS, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 5
COLD_REPEATS = 9
SUBPROCESS_TIMEOUT = 120
END_TO_END = {
    "setup_s": "s",
    "cold_job_s": "s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "jobs_per_s": "1/s",
    "peak_rss_mib": "MiB",
}

class MissingSources(Exception):
    """The checkout holds no plotkin_wef sources to benchmark."""


def load_cli():
    """Import the CLI from this checkout's sources, never from elsewhere."""
    if not (SRC / "plotkin_wef" / "__init__.py").is_file():
        raise MissingSources(f"no plotkin_wef sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from plotkin_wef import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise MissingSources(f"plotkin_wef imported from {cli.__file__}, not {SRC}")
    return cli


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def commit_id() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def kernel_name():
    """Active kernel, while the package still names it."""
    try:
        from plotkin_wef import kernel
        return kernel.backend_name()
    except (ImportError, AttributeError):
        return None


class Harness:
    """Runs jobs in-process, checks them, and keeps the tally."""

    def __init__(self, cli, checker: Checker, log):
        self.cli = cli
        self.checker = checker
        self.log = log
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.stats: dict[str, dict] = {}
        self.meter = SpeedMeter()

    def _call(self, argv):
        """Run the CLI in-process; the time excludes speed probes that fell inside."""
        out, err = io.StringIO(), io.StringIO()
        probed = self.meter.probe_s
        started = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a traceback is a failed job, not a failed benchmark
            code = "traceback"
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - started - (self.meter.probe_s - probed)
        return code, out.getvalue(), err.getvalue(), elapsed

    def call(self, argv):
        if self.tracer is None:
            return self._call(argv)
        with self.tracer.span("cli.main"):
            return self._call(argv)

    def run_job(self, job) -> tuple[float, float]:
        """Run one job and check it; return its wall time (CLI calls only) and speed scale."""
        if self.tracer is not None:
            self.tracer.job = job.key
        with self.meter.measure():
            code, text, err, elapsed = self.call(job.argv)
            texts = [text]
            if code == 0 and job.bound_argv is not None:
                with open(job.out_path, "w", encoding="utf-8") as fh:
                    fh.write(text)
                code, text, err, more = self.call(job.bound_argv)
                texts.append(text)
                elapsed += more
        self.record(job, code, texts, err)
        return elapsed, self.meter.scale

    def record(self, job, code, texts, err) -> None:
        self.attempted += 1
        if code != 0:
            problems = [f"exit {code}: {err.strip()[-500:]}"]
        else:
            problems, self.stats[job.key] = self.checker.check(job, texts)
        if problems:
            self.failed += 1
            self.log(f"# FAILED {job.key} {' '.join(job.argv)}: {'; '.join(problems)}",
                     file=sys.stderr)

    def cold_job(self, job) -> tuple[float, float]:
        """Wall time and speed scale of the job's first CLI call in a fresh interpreter."""
        started = time.perf_counter()
        proc = run_child("cli", *job.argv)
        wall = time.perf_counter() - started
        self.record(job, proc.returncode, [proc.stdout], proc.stderr)
        report = child_report(proc)
        return wall - report["probe_s"], report["scale"]


def run_child(*args) -> subprocess.CompletedProcess:
    """``python -m plotkin_wef.cli`` (or just its import) in a fresh, speed-probed process."""
    return subprocess.run(
        [sys.executable, str(HERE / "speed.py"), *args], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT,
    )


def child_report(proc) -> dict:
    """The speed report a child prints last on stderr; neutral if it died first."""
    try:
        return json.loads(proc.stderr.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"elapsed": 0.0, "probe_s": 0.0, "scale": 1.0}


def import_seconds() -> tuple[float, float]:
    proc = run_child("import")
    if proc.returncode != 0:
        raise MissingSources(f"plotkin_wef does not import: {proc.stderr.strip()[-500:]}")
    report = child_report(proc)
    return report["elapsed"], report["scale"]


def percentile_90(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10)[-1] if len(samples) > 1 else samples[0]


def run_cycle(harness, jobs) -> list[tuple[float, float]]:
    return [harness.run_job(job) for job in jobs]


def end_to_end(harness, workload, seed, seconds, size, log) -> dict:
    work = str(WORK / workload)
    setups = []
    for _ in range(SETUP_REPEATS):
        imported, import_scale = import_seconds()
        meter = harness.meter
        with meter.measure():
            probed, started = meter.probe_s, time.perf_counter()
            cycles = generate(workload, seed, work, size)
            generated = time.perf_counter() - started - (meter.probe_s - probed)
        setups.append(imported * import_scale + generated * meter.scale)
    first = cycles[0][0]
    cold = [harness.cold_job(first) for _ in range(COLD_REPEATS)]
    harness.run_job(first)  # warm-up: imports and lazy tables settle
    timed: list[tuple[float, float]] = []
    started = time.perf_counter()
    cycle = 0
    while cycle == 0 or time.perf_counter() - started < seconds:
        timed += run_cycle(harness, cycles[cycle % MAX_CYCLES])
        cycle += 1
    samples = [t * k for t, k in timed]
    raw = [t for t, _ in timed]
    width = len(cycles[0])
    log(f"# {len(samples)} warm jobs in {cycle} cycles, {sum(raw):.3f} s of job time;"
        f" 90th percentile has {len(samples) // 10} samples above it")
    log(f"# raw wall times: job median {statistics.median(raw):.4f} s,"
        f" 90th percentile {percentile_90(raw):.4f} s;"
        f" speed scale median {statistics.median(k for _, k in timed):.3f}")
    log("# median reference s by cycle position: " + " ".join(
        f"j{j}={statistics.median(samples[j::width]):.4f}" for j in range(width)))
    return {
        "setup_s": statistics.median(setups),
        "cold_job_s": statistics.median(t * k for t, k in cold),
        "job_p50_s": statistics.median(samples),
        "job_p90_s": percentile_90(samples),
        "jobs_per_s": len(samples) / sum(samples),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(harness, workload, seed, seconds, size, log) -> dict:
    jobs = generate(workload, seed, str(WORK / workload), size)[0]
    tracer = harness.tracer = tracing.Tracer()
    timed_units = {name for name, (unit, _) in tracing.LAYER_METRICS.items()
                   if unit in ("s", "ns")}

    def traced_cycle():
        tracer.spans = []
        tracer.install()
        try:
            timed = run_cycle(harness, jobs)
        finally:
            tracer.uninstall()
        return tracer.spans, timed

    # The first traced cycle runs cold, so it holds the binomial-table growth.
    started = time.perf_counter()
    cold_spans, cold_timed = traced_cycle()
    shared_table_s = statistics.median(k for _, k in cold_timed) * sum(
        s.duration for s in cold_spans if s.name == "combinatorics.shared_table")
    per_cycle, traced_times, untraced_times = [], [], []
    while not per_cycle or time.perf_counter() - started < seconds:
        harness.tracer = None
        untraced_times.append(sum(t * k for t, k in run_cycle(harness, jobs)))
        harness.tracer = tracer
        spans, timed = traced_cycle()
        traced_times.append(sum(t * k for t, k in timed))
        scale = statistics.median(k for _, k in timed)
        values = tracing.cycle_metrics(spans, jobs, harness.stats)
        per_cycle.append({name: value * scale if name in timed_units else value
                          for name, value in values.items()})
    log(f"# {len(per_cycle)} traced and {len(untraced_times)} untraced repeats of cycle 0"
        f" ({len(jobs)} jobs); times are medians per cycle, in reference seconds")
    metrics = {name: statistics.median_low([c[name] for c in per_cycle])
               for name in per_cycle[0]}
    metrics["combinatorics.shared_table_s"] = shared_table_s
    table = tracing.table_size()
    if table is not None:
        metrics["combinatorics.table_rows"], metrics["combinatorics.table_mib"] = table
    metrics["trace.overhead_ratio"] = (statistics.median(traced_times)
                                       / statistics.median(untraced_times))
    for name in tracing.absent_metrics(tracer.present):
        metrics[name] = None
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
        digests=None, log=print):
    """Run one workload; return the result printed as the last line, and the harness.

    ``digests`` overrides the reference digests of the default seed (the
    self-test passes its own).
    """
    cli = load_cli()
    reference = {}
    if size == "full" and REFERENCE.is_file():
        reference = json.loads(REFERENCE.read_text())
    if digests is None and seed == reference.get("seed"):
        digests = reference["digests"].get(workload, {})
    harness = Harness(cli, Checker(digests, reference), log)
    log("# " + json.dumps({
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "python": sys.version.split()[0], "nproc": os.cpu_count(), "commit": commit_id(),
        "kernel": kernel_name(), "reference_digests": bool(digests),
    }))
    if trace:
        values = per_layer(harness, workload, seed, seconds, size, log)
        units = {name: unit for name, (unit, _) in tracing.LAYER_METRICS.items()}
    else:
        values = end_to_end(harness, workload, seed, seconds, size, log)
        units = END_TO_END
    metrics = {}
    for name, unit in units.items():
        value = values.get(name)
        metrics[name] = {"value": value, "unit": unit}
        if value is None:
            metrics[name]["absent"] = True
        kind = "computed" if name in tracing.COMPUTED else "measured"
        log(f"# {name:30} {'absent' if value is None else value} {unit} ({kind})")
    log(f"# fail_ratio {harness.failed / harness.attempted}"
        f" ({harness.failed} of {harness.attempted} jobs wrong or failed)")
    result = {
        "correct": harness.failed == 0,
        "attempted": harness.attempted,
        "failed": harness.failed,
        "metrics": metrics,
    }
    return result, harness


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One CPU for the harness and its child processes, so that the speed
    # probes measure the CPU the jobs run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        result, _ = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except MissingSources as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
