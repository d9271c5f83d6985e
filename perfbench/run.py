"""Benchmark of the eulersum CLI: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from the src/ directory next to
perfbench/.  Each pass runs all of the workload's ops, in the order the seed
fixes, through ``eulersum.cli.run`` in a fresh worker interpreter, so every
pass pays cold caches as a CLI user does.  Passes repeat until --seconds have
gone by (at least three).  Outputs are checked after the timed passes.

The last line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end-to-end ones, each the
median over passes of times calibrated against the machine's speed (see
worker.py).  With --trace 1 untraced and traced passes alternate; the metrics
are the per-layer ones from the traced passes, whose exact counters must
agree, plus the tracing overhead.  The line before it records the raw and
calibrated per-pass times, the failures and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import CHECKS, REQUIRED_CALLS, WORKLOADS, make_ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"  # span files of traced runs
MIN_PASSES = 3
MIN_TRACED_PASSES = 2  # the exact-counter check compares traced passes
SETUP_PROBES = 4  # import-only workers that add setup_s samples
RUN_LIMIT_S = 170  # every worker is killed by then, so the run ends within 180 s


class Worker:
    """Starts worker interpreters, each bounded by the run's deadline."""

    def __init__(self):
        self.deadline = time.monotonic() + RUN_LIMIT_S
        # No default precision may leak in, and bytecode is cached as for an
        # installed package, so setup_s means the same in every environment.
        dropped = ("EULERSUM_DEFAULT_BITS", "PYTHONDONTWRITEBYTECODE")
        self.env = {k: v for k, v in os.environ.items() if k not in dropped}

    def run(self, ops: list, trace: bool = False, spans_path: str | None = None) -> dict:
        job = {"src": str(SRC), "ops": ops, "trace": trace, "spans_path": spans_path}
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            input=json.dumps(job), capture_output=True, text=True, env=self.env,
            timeout=max(1.0, self.deadline - time.monotonic()),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout)


def measure(worker: Worker, ops: list, seconds: float, trace: bool, spans_path: str) -> tuple[list, list]:
    """(untraced passes, traced passes), repeated until `seconds` have gone by."""
    end = time.monotonic() + seconds
    plain, traced = [], []
    while True:
        t = time.monotonic()
        plain.append(worker.run(ops))
        if trace:
            traced.append(worker.run(ops, True, None if traced else spans_path))
        enough = len(traced) >= MIN_TRACED_PASSES if trace else len(plain) >= MIN_PASSES
        if enough and time.monotonic() + (time.monotonic() - t) > end:
            return plain, traced


def check_outputs(workload: str, passes: list) -> tuple[int, int, list]:
    """(ops attempted, ops failed, problems) over all passes.

    An op fails when it exits nonzero or its output is wrong.  A wrong output,
    or an op whose exit code or output differs between passes, is a problem.
    """
    first = {json.dumps(op["argv"]): op for op in passes[0]["ops"]}
    printed = [op for op in first.values() if op["out"]]
    verdicts = dict(zip((json.dumps(op["argv"]) for op in printed), CHECKS[workload](printed)))
    problems = [v for v in verdicts.values() if v]
    attempted = failed = 0
    for p in passes:
        for op in p["ops"]:
            key = json.dumps(op["argv"])
            attempted += 1
            failed += op["rc"] != 0 or verdicts.get(key) is not None
            if (op["rc"], op["out"]) != (first[key]["rc"], first[key]["out"]):
                problems.append(f"{' '.join(op['argv'])}: output differs between passes")
    return attempted, failed, problems


def end_to_end(plain: list, setup_samples: list) -> dict:
    """The end-to-end metrics, from calibrated times (see worker.py)."""
    med = statistics.median
    return {
        "wall_s": (med(p["cal_wall_s"] for p in plain), "s"),
        "op_p50_s": (med(op["cal_s"] for p in plain for op in p["ops"]), "s"),
        "op_max_s": (med(max(op["cal_s"] for op in p["ops"]) for p in plain), "s"),
        "setup_s": (med(setup_samples), "s"),
        "peak_rss_mb": (med(p["peak_rss_mb"] for p in plain), "MB"),
    }


def per_layer(workload: str, plain: list, traced: list) -> tuple[dict, list]:
    """Per-layer metrics of the traced passes and the problems they show.

    Counters (names not ending in _s) must be equal in every traced pass;
    times are medians over the traced passes.
    """
    layers = [p["layers"] for p in traced]
    problems = [f"exact counter {name} differs between passes: {[l[name] for l in layers]}"
                for name in layers[0] if not name.endswith("_s") and len({l[name] for l in layers}) > 1]
    required = REQUIRED_CALLS[workload]
    if not layers[0][required] > 0:
        problems.append(f"traced run saw no calls in {required}")
    out = {name: (statistics.median(l[name] for l in layers), "s") if name.endswith("_s")
           else (layers[0][name], "count") for name in layers[0]}
    overhead = (statistics.median(p["cal_wall_s"] for p in traced)
                - statistics.median(p["cal_wall_s"] for p in plain))
    out["trace.overhead_s"] = (overhead, "s")
    return out, problems


def environment() -> dict:
    import mpmath

    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "eulersum" / "cli.py").is_file():
        print(f"error: no eulersum package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the output checks use the package too

    worker = Worker()
    ops = make_ops(args.workload, args.seed)
    worker.run([])  # compiles bytecode and warms the file cache; not measured
    setup_samples = [worker.run([])["setup_cal_s"] for _ in range(SETUP_PROBES)]
    spans_path = None
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = str(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")
    plain, traced = measure(worker, ops, args.seconds, bool(args.trace), spans_path)
    setup_samples += [p["setup_cal_s"] for p in plain + traced]

    attempted, failed, problems = check_outputs(args.workload, plain + traced)
    if args.trace:
        metrics, layer_problems = per_layer(args.workload, plain, traced)
        problems += layer_problems
    else:
        metrics = end_to_end(plain, setup_samples)

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "ops_per_pass": len(ops),
        "passes": len(plain),
        "traced_passes": len(traced),
        "fail_ratio": failed / attempted,
        "failed_ops": sorted({" ".join(op["argv"]) for p in plain for op in p["ops"] if op["rc"]}),
        "problems": problems[:20],
        "pass_wall_s": [p["wall_s"] for p in plain],
        "pass_cal_wall_s": [p["cal_wall_s"] for p in plain],
        "traced_pass_cal_wall_s": [p["cal_wall_s"] for p in traced],
        "environment": environment(),
    }
    if traced:
        details["spans"] = spans_path
    print(json.dumps(details))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
