"""The repository's benchmark: one workload per run.

    python3 perfbench/run.py --workload churn_seq --seed 1 --seconds 10 --trace 0

Generates the workload's inputs from ``--seed`` (before any program
object exists), runs the timed phase, checks the program's outputs, and
prints the metrics. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json; with ``--trace 1``
they are the per-layer ledger of a traced run. Any failed check makes
the run exit with status 1. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("churn_seq", "snapshot_cycle", "daemon_bursts")


def host_probe() -> float:
    """Median of five runs of a fixed pure-Python loop, in ms. Printed
    beside the metrics to tell a slow host from a slow program; it never
    adjusts a metric."""
    times = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for value in range(200_000):
            total += value * value % 7
        times.append(time.perf_counter() - started)
    return statistics.median(times) * 1e3


def commit() -> str:
    """The checked-out commit, when the tree is a git work tree."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="ascii").strip()
        if not ref.startswith("ref: "):
            return ref
        loose = ROOT / ".git" / ref[5:]
        if loose.exists():
            return loose.read_text(encoding="ascii").strip()
        packed = (ROOT / ".git" / "packed-refs").read_text(encoding="ascii")
        for line in packed.splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """A hash of the program's sources, which names the code measured
    even where the checkout is not a git work tree."""
    sha = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sha.update(str(path.relative_to(ROOT)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()[:16]


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench import daemon_load, inproc
    from perfbench.inputs import digest, make_inputs

    probe_before = host_probe()
    inputs = make_inputs(args.workload, args.seed, args.seconds)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_digest": digest(inputs),
        "input_updates": inputs.update_count,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": commit(),
        "source_digest": source_digest(),
    }
    gc.collect()
    baseline_kb = inproc.rss_now_kb()
    if args.workload == "daemon_bursts":
        outcome = daemon_load.run(ROOT, inputs, traced=bool(args.trace))
    elif args.trace:
        outcome = inproc.run_traced(inputs)
    else:
        outcome = inproc.run_untraced(inputs, baseline_kb)
    meta["host_probe_ms"] = [round(probe_before, 3), round(host_probe(), 3)]
    meta.update(outcome.notes)

    for name, (value, unit) in outcome.metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    for problem in outcome.problems:
        print(f"FAILED: {problem}")
    print("META " + json.dumps(meta, sort_keys=True))
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
