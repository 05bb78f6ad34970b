"""Steadiness check: two sets of runs, alternated run by run.

    python3 perfbench/steady.py [--workloads churn_seq,daemon_bursts]
                                [--seeds 10] [--first-seed 1] [--seconds N]
                                [--b-root PATH] [--json OUT]

For every seed and workload it runs one run of each set, alternating
which goes first (A1 B1 B2 A2 A3 B3 ...), each run a fresh
``python3 perfbench/run.py`` process with the same seed in both sets.
Set B runs the same tree unless ``--b-root`` names another checkout (a
parent commit, say), which turns the check into the parent-versus-change
comparison a performance claim needs.

For each workload and end-to-end metric it prints each set's median and
quartiles, the spread of each set (interquartile distance over median),
and the gap between the two medians in the metric's worse direction,
each against the metric's bound in BENCHMARK.json. Count metrics must
agree exactly seed by seed. Each run's host probe (a fixed pure-Python
loop timed before and after the workload) is printed beside it, so a
run slowed by the host can be told from a slow program.

Exits 1 when a spread, a gap or a count disagreement exceeds its limit,
or when any run fails. ``setup_s`` is held to its bound by the gap
alone: every run already reports the median of several set-ups, and the
benchmark's acceptance rule exempts set-up time from the spread check.
Its spread is printed all the same.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT)]

from perfbench.stats import spread  # noqa: E402

#: Metrics that are functions of the seed and run length alone.
COUNT_METRICS = ("downloads_per_update", "fib_ratio", "at_drift")
RUN_TIMEOUT_S = 900


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict[str, Any]:
    """One benchmark run in a fresh interpreter; its result and META."""
    command = [
        sys.executable,
        str(root / "perfbench" / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", f"{seconds:g}",
        "--trace", "0",
    ]
    done = subprocess.run(
        command, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    lines = done.stdout.strip().splitlines()
    meta = next(
        (json.loads(line[5:]) for line in lines if line.startswith("META ")), {}
    )
    if done.returncode != 0 or not lines:
        error = (done.stderr or done.stdout)[-2000:]
        return {"ok": False, "error": error, "meta": meta}
    result = json.loads(lines[-1])
    return {"ok": result["correct"], "result": result, "meta": meta}


def worse_gap(a: float, b: float, better: str) -> float:
    """How much worse median ``b`` is than ``a``, as a share of ``a``."""
    change = (b - a) / a
    return change if better == "lower" else -change


def summarize(
    benchmark: dict[str, Any], runs: dict[str, dict[str, list[dict[str, Any]]]]
) -> tuple[list[str], bool]:
    """One line per workload and metric; False when any limit is broken."""
    lines: list[str] = []
    ok = True
    for workload, sets in runs.items():
        lines.append(f"== {workload}")
        for spec in benchmark["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            values = {
                label: [r["result"]["metrics"][name]["value"] for r in got if r["ok"]]
                for label, got in sets.items()
            }
            if min(len(v) for v in values.values()) < 2:
                lines.append(f"  {name}: too few successful runs")
                ok = False
                continue
            parts = []
            for label, vals in values.items():
                q1, median, q3 = statistics.quantiles(vals, n=4)
                parts.append(
                    f"{label} {median:.6g} [{q1:.6g}, {q3:.6g}] "
                    f"spread {spread(vals):.3f}"
                )
            gap = worse_gap(
                statistics.median(values["A"]),
                statistics.median(values["B"]),
                spec["better"],
            )
            checks = [gap <= bound]
            # Set-up time is held to its bound by the gap alone (see the
            # module docstring); its spread is printed, not checked.
            if name != "setup_s":
                checks += [spread(v) <= bound for v in values.values()]
            verdict = "ok" if all(checks) else "FAIL"
            if name in COUNT_METRICS and values["A"] != values["B"]:
                verdict += " COUNTS DIFFER"
                checks.append(False)
            ok = ok and all(checks)
            lines.append(
                f"  {name:22s} {' | '.join(parts)} | gap {gap:+.3f} "
                f"bound {bound} {verdict}"
            )
    return lines, ok


def main(argv: Optional[Sequence[str]] = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(
        prog="perfbench/steady.py", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument(
        "--workloads", default=",".join(w["name"] for w in benchmark["workloads"])
    )
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=float(benchmark["run_seconds"])
    )
    parser.add_argument("--b-root", type=Path, default=ROOT)
    parser.add_argument("--json", type=Path, default=None)
    args = parser.parse_args(argv)
    roots = {"A": ROOT, "B": args.b_root.resolve()}
    workloads = args.workloads.split(",")
    runs: dict[str, dict[str, list[dict[str, Any]]]] = {
        w: {"A": [], "B": []} for w in workloads
    }
    for pair, seed in enumerate(range(args.first_seed, args.first_seed + args.seeds)):
        # Alternate which set goes first, so neither always runs on the
        # host state the other left.
        order = ("A", "B") if pair % 2 == 0 else ("B", "A")
        for workload in workloads:
            for label in order:
                outcome = run_once(roots[label], workload, seed, args.seconds)
                runs[workload][label].append(outcome)
                probe = outcome["meta"].get("host_probe_ms")
                status = "ok" if outcome["ok"] else "FAILED " + outcome["error"][-300:]
                print(f"{workload} seed {seed} {label}: probe {probe} {status}")
                sys.stdout.flush()
    lines, ok = summarize(benchmark, runs)
    print("\n".join(lines))
    if args.json is not None:
        args.json.write_text(json.dumps(runs, indent=1), encoding="utf-8")
    all_ran = all(
        r["ok"] for sets in runs.values() for got in sets.values() for r in got
    )
    return 0 if ok and all_ran else 1


if __name__ == "__main__":
    raise SystemExit(main())
