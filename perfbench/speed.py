"""Speed probes: how fast the machine ran while something was timed.

Shared hosts change speed by up to 2x within seconds.  Times are reported in
reference seconds: the time a run would take on a machine where the probe, a
fixed big-integer loop, takes PROBE_REF_S.  EDGE_PROBES probes run right
before and after the timed interval and, from a SIGALRM interval timer, every
PROBE_INTERVAL_S inside it; ``scale`` is the mean speed over the probes and
``probe_s`` their own time, which callers subtract.

Run as a script, this module times one child-process command under a meter
and reports on the last line of stderr, for the measurements that need a
fresh interpreter:

    python3 perfbench/speed.py import            # import plotkin_wef.cli
    python3 perfbench/speed.py cli ARGS...       # python -m plotkin_wef.cli ARGS...

Only the standard library is imported here, so the child's own start-up
stays that of the CLI.
"""

from __future__ import annotations

import io
import json
import runpy
import signal
import sys
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout

PROBE_ITERATIONS = 2000
PROBE_REF_S = 0.001
PROBE_INTERVAL_S = 0.04
EDGE_PROBES = 3


def probe_seconds() -> float:
    """Wall time of the speed probe."""
    a, b, acc = 3**200, 7**150, 0
    started = time.perf_counter()
    for i in range(PROBE_ITERATIONS):
        acc += a * b * i
    return time.perf_counter() - started


class SpeedMeter:
    def __init__(self):
        self.samples: list[float] = []

    def _on_alarm(self, signum, frame):
        self.samples.append(probe_seconds())

    @contextmanager
    def measure(self):
        self.samples = [probe_seconds() for _ in range(EDGE_PROBES)]
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
            self.samples += [probe_seconds() for _ in range(EDGE_PROBES)]

    @property
    def probe_s(self) -> float:
        return sum(self.samples)

    @property
    def scale(self) -> float:
        return sum(PROBE_REF_S / t for t in self.samples) / len(self.samples)


def child_main(argv: list[str]) -> int:
    meter = SpeedMeter()
    code = 0
    # A signal that lands in a large write to a pipe can corrupt the data, so
    # the output is held in memory until the timer is off.
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with meter.measure(), redirect_stdout(out), redirect_stderr(err):
        if argv[0] == "import":
            import plotkin_wef.cli  # noqa: F401
        else:
            sys.argv = ["plotkin-wef", *argv[1:]]
            try:
                runpy.run_module("plotkin_wef.cli", run_name="__main__", alter_sys=True)
            except SystemExit as exc:
                code = exc.code
    sys.stdout.write(out.getvalue())
    sys.stdout.flush()
    sys.stderr.write(err.getvalue())
    elapsed = time.perf_counter() - started - meter.probe_s
    report = {"elapsed": elapsed, "probe_s": meter.probe_s, "scale": meter.scale}
    print(json.dumps(report), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1:]))
