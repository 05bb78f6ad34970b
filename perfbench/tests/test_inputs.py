"""One seed always yields the same inputs, in any interpreter."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

PRINT_DIGESTS = """
from perfbench.inputs import digest, make_inputs
for workload in ("churn_seq", "snapshot_cycle", "daemon_bursts"):
    print(workload, digest(make_inputs(workload, {seed}, 0.5)))
"""


def digests(seed: int, hash_seed: str) -> str:
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(ROOT), str(ROOT / "src")]),
        PYTHONHASHSEED=hash_seed,
        REPRO_SCALE="1" if hash_seed == "1" else "0.1",
    )
    done = subprocess.run(
        [sys.executable, "-c", PRINT_DIGESTS.format(seed=seed)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    return done.stdout


def test_a_seed_yields_one_digest_and_another_seed_another():
    first = digests(3, "1")
    assert first == digests(3, "2")
    assert len(first.splitlines()) == 3
    other = digests(4, "2")
    assert all(a != b for a, b in zip(first.splitlines(), other.splitlines()))
