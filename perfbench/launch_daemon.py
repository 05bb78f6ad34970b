"""Run the daemon with the benchmark's span wrappers installed.

    python3 perfbench/launch_daemon.py SPANS_OUT [daemon arguments...]

Installs the same wrappers as the in-process traced runs plus the
control-plane ones (frame decode, the tenant queue), calls
``repro.daemon.__main__.main`` with the remaining arguments, and writes
its spans to SPANS_OUT as JSON once the daemon has shut down.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.spans import Tracer  # noqa: E402
from repro.daemon.__main__ import main  # noqa: E402


def launch(argv: list[str]) -> int:
    spans_out, daemon_argv = Path(argv[0]), argv[1:]
    tracer = Tracer()
    tracer.install(daemon=True)
    try:
        return main(daemon_argv)
    finally:
        tracer.remove()
        dump = {
            "spans": tracer.log.to_json(),
            "queue_waits": tracer.queue_waits,
            "queue_depth_max": tracer.queue_depth_max,
            "gen2_times": tracer.gen2_times,
        }
        spans_out.write_text(json.dumps(dump, separators=(",", ":")), encoding="utf-8")


if __name__ == "__main__":
    raise SystemExit(launch(sys.argv[1:]))
