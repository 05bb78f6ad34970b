"""Regression tests for the REPRO014 fixes: the timing experiment and
the report tool take an injected clock, so replays are deterministic
and the effects analyzer stays clean on both modules."""

from __future__ import annotations

import itertools
from pathlib import Path

import pytest

from repro.experiments import timing
from repro.tools.report import run_report
from repro.verify.engine import analyze

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(autouse=True)
def tiny_repro_scale(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "0.01")


def ticking_clock(step: float = 0.25):
    counter = itertools.count()
    return lambda: step * next(counter)


class TestTimingClockInjection:
    def test_injected_clock_drives_every_measurement(self) -> None:
        result = timing.run(
            seed=7,
            nexthop_counts=(4,),
            update_samples=20,
            clock=ticking_clock(0.5),
        )
        # Every measured interval is exactly one fake tick = 0.5 s.
        assert result.snapshot_timings[0].duration_s == 0.5
        assert result.update_mean_us == pytest.approx(5e5)
        assert result.update_median_us == pytest.approx(5e5)

    def test_replay_is_deterministic(self) -> None:
        kwargs = dict(seed=11, nexthop_counts=(4,), update_samples=10)
        first = timing.run(clock=ticking_clock(), **kwargs)
        second = timing.run(clock=ticking_clock(), **kwargs)
        assert first == second


class TestReportClockInjection:
    def test_injected_clock_times_each_experiment(self) -> None:
        lines: list[str] = []
        durations = run_report(
            ["timing"], emit=lines.append, clock=ticking_clock(2.0)
        )
        # run_report brackets each experiment with exactly two reads.
        assert durations == {"timing": 2.0}
        assert any("(2.0s)" in line for line in lines)


class TestModulesStayClean:
    @pytest.mark.parametrize(
        "rel", ["src/repro/experiments/timing.py", "src/repro/tools/report.py"]
    )
    def test_effects_analyzer_is_silent(self, rel: str) -> None:
        findings = analyze([REPO_ROOT / rel], select=frozenset({"REPRO014"}))
        assert findings == []
