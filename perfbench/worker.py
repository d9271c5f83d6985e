"""One pass of a workload in a fresh interpreter, so every pass starts with cold caches.

Reads {"src", "ops", "trace", "spans_path"} as JSON on stdin and writes one JSON
result on stdout: the import time, each op's exit code, latency and output,
the peak RSS, and with "trace" the per-layer metrics.  Run by run.py.

The machine this runs on changes speed by up to half over tens of seconds.
So the worker also times a fixed loop of mpmath.libmp arithmetic, the probe:
three times after the import, once after the last op and, in an untraced
pass, every PROBE_EVERY_S from a timer signal, during long ops too.  Probe
time is left out of every op's latency.  Each time is also reported scaled
by PROBE_REF_S over the mean of the probes around it ("calibrated"), which
removes the machine's drift.  The probe runs no eulersum code, so no change
to the package can move it.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import json
import os
import resource
import signal
import sys
import time

PROBE_REF_S = 0.016  # probe duration that makes a calibrated second
PROBE_EVERY_S = 0.25


def probe() -> float:
    """Duration of a fixed loop of 256-bit libmp arithmetic: the machine's current speed."""
    from mpmath.libmp import from_rational, mpf_add, mpf_mul

    t = time.perf_counter()
    x = from_rational(1, 3, 256, "n")
    for n in range(1, 3000):
        x = mpf_add(x, mpf_mul(from_rational(1, n * n, 256, "n"), x, 256, "n"), 256, "n")
    return time.perf_counter() - t


class Prober:
    """Runs the probe, also from SIGALRM, and keeps when it ran, its durations and their total."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (end time, duration)
        self.spent = 0.0

    def sample(self, *_) -> None:
        t = time.perf_counter()
        d = probe()
        self.samples.append((time.perf_counter(), d))
        self.spent += time.perf_counter() - t

    @contextlib.contextmanager
    def every(self, seconds: float):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, seconds, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> float:
        """PROBE_REF_S over the mean probe from the last one before start to the first after end."""
        ends = [t for t, _ in self.samples]
        first = max(bisect.bisect_right(ends, start) - 1, 0)
        last = bisect.bisect_left(ends, end)
        around = [d for _, d in self.samples[first:last + 1]]
        return PROBE_REF_S * len(around) / sum(around)


def main() -> None:
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    t0 = time.perf_counter()
    import eulersum
    import eulersum.cli as cli
    setup_s = time.perf_counter() - t0
    if not os.path.abspath(eulersum.__file__).startswith(os.path.abspath(job["src"]) + os.sep):
        raise SystemExit(f"imported eulersum from {eulersum.__file__}, not from {job['src']}")

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    prober = Prober()
    for _ in range(3):
        prober.sample()
    setup_cal_s = setup_s * PROBE_REF_S * 3 / sum(d for _, d in prober.samples)
    ops = []
    with contextlib.nullcontext() if tracer else prober.every(PROBE_EVERY_S):
        for i, argv in enumerate(job["ops"]):
            if tracer is not None:
                tracer.op = i
            out, err = io.StringIO(), io.StringIO()
            t, probed = time.perf_counter(), prober.spent
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.run(argv)
            end = time.perf_counter()
            ops.append({"argv": argv, "rc": rc, "s": end - t - (prober.spent - probed),
                        "start": t, "end": end, "out": out.getvalue(), "err": err.getvalue()})
    prober.sample()
    for op in ops:
        op["cal_s"] = op["s"] * prober.scale(op.pop("start"), op.pop("end"))

    result = {
        "setup_s": setup_s,
        "setup_cal_s": setup_cal_s,
        "wall_s": sum(op["s"] for op in ops),
        "cal_wall_s": sum(op["cal_s"] for op in ops),
        "probes": len(prober.samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": ops,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        if job.get("spans_path"):
            with open(job["spans_path"], "w") as f:
                json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": tracer.spans}, f)
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
