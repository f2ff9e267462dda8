"""Talk-back request benchmark: one command, three workloads, checked answers.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload talkback --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs a traced
phase and prints the per-layer metrics.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the line before it is a JSON report with the environment
(``nproc``, Python version, load average at start, seed, a fixed CPU
loop's time at start and end, the CPU steal share), sample counts
and the figures that only some workloads have (``write_p50_ms``,
``write_p99_ms``, ``failed_share``).  The exit code is 1 when any answer
differs from the sequential reference, and 2 when the run cannot start.
Workloads and metrics are described in ``perfbench/DESIGN.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("talkback", "verify-churn", "record-validate")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_metrics(section: str) -> dict:
    """``{name: unit}`` of one metric list in ``BENCHMARK.json``."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in declared[section]}


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_1m": os.getloadavg()[0],
        "seed": seed,
    }


def cpu_loop_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast the box runs right now.

    Recorded at the start and the end of every run so that comparisons can
    tell a slow program from a slow (shared, throttled) machine.
    """
    times = []
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for value in range(200_000):
            total += value
        times.append((time.perf_counter() - started) * 1e3)
    return statistics.median(times)


def cpu_ticks():
    """(steal, total) jiffies from ``/proc/stat``, or ``None`` off Linux."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(value) for value in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def main(argv=None) -> int:
    args = parse_args(argv)
    env = environment(args.seed)
    env["cpu_loop_ms_start"] = cpu_loop_ms()
    ticks = cpu_ticks()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import bench

    work_dir = ROOT / ".perfbench_work" / str(os.getpid())
    run = bench.Run(args.workload, args.seed, args.seconds, bool(args.trace), work_dir)
    try:
        asyncio.run(run.execute())
    finally:
        bench.clean(work_dir)
        try:
            work_dir.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    attempted = run.attempted
    correct = not run.problems
    wanted = declared_metrics("per_layer" if args.trace else "end_to_end")
    missing = sorted(set(wanted) - set(run.metrics))
    if missing:
        raise RuntimeError(f"metrics declared but not measured: {missing}")
    report = dict(run.report)
    report["other_metrics"] = {
        name: value for name, (value, _unit) in run.metrics.items() if name not in wanted
    }
    env["cpu_loop_ms_end"] = cpu_loop_ms()
    end_ticks = cpu_ticks()
    if ticks is not None and end_ticks is not None and end_ticks[1] > ticks[1]:
        env["steal_share"] = (end_ticks[0] - ticks[0]) / (end_ticks[1] - ticks[1])
    report.update(
        workload=args.workload,
        environment=env,
        failed_share=run.failed / attempted if attempted else 0.0,
        problems=run.problems[:20],
    )
    print(json.dumps(report, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in sorted(run.metrics.items())
            if name in wanted
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    # A terminated run unwinds like a failed one: it still ends its set-up
    # process, waits for it and removes its work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
