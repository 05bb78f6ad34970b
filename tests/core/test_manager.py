"""Tests for SmaltaManager: lifecycle, policies, queueing, pass-through."""

from __future__ import annotations

import pytest

from repro.core.downloads import DownloadKind, DownloadLog
from repro.core.manager import SmaltaManager
from repro.core.policy import PeriodicUpdateCountPolicy
from repro.core.equivalence import semantically_equivalent
from repro.net.prefix import Prefix
from repro.net.update import RouteUpdate

from tests.conftest import make_nexthops

NH = make_nexthops(4)
A, B = NH[0], NH[1]


def bp(bits: str) -> Prefix:
    return Prefix.from_bits(bits, width=8)


class TestStartup:
    def test_loading_produces_no_downloads(self):
        manager = SmaltaManager(width=8)
        downloads = manager.apply(RouteUpdate.announce(bp("1"), A))
        assert downloads == [] and manager.at_size == 0
        assert manager.ot_size == 1

    def test_end_of_rib_downloads_full_at(self):
        manager = SmaltaManager(width=8)
        manager.apply(RouteUpdate.announce(bp("10"), A))
        manager.apply(RouteUpdate.announce(bp("11"), A))
        downloads = manager.end_of_rib()
        assert [d.kind for d in downloads] == [DownloadKind.INSERT]
        assert downloads[0].prefix == bp("1")

    def test_withdraw_during_loading(self):
        manager = SmaltaManager(width=8)
        manager.apply(RouteUpdate.announce(bp("1"), A))
        manager.apply(RouteUpdate.withdraw(bp("1")))
        manager.end_of_rib()
        assert manager.fib_size == 0


class TestSteadyState:
    def make_running(self) -> SmaltaManager:
        manager = SmaltaManager(width=8)
        manager.end_of_rib()
        return manager

    def test_updates_flow_to_fib(self):
        manager = self.make_running()
        manager.apply(RouteUpdate.announce(bp("10"), A))
        manager.apply(RouteUpdate.announce(bp("11"), B))
        assert semantically_equivalent(
            manager.state.ot_table(), manager.fib_table(), 8
        )

    def test_withdraw_unknown_prefix_ignored(self):
        manager = self.make_running()
        assert manager.apply(RouteUpdate.withdraw(bp("1"))) == []

    def test_snapshot_policy_triggers(self):
        manager = SmaltaManager(width=8, policy=PeriodicUpdateCountPolicy(3))
        manager.end_of_rib()
        for bits in ("100", "101", "110"):
            manager.apply(RouteUpdate.announce(bp(bits), A))
        # Initial end_of_rib snapshot + the policy-triggered one.
        assert manager.log.snapshot_count == 2
        assert manager.updates_since_snapshot == 0

    def test_download_accounting_split(self):
        log = DownloadLog()
        manager = SmaltaManager(width=8, download_log=log)
        manager.end_of_rib()
        manager.apply(RouteUpdate.announce(bp("10"), A))
        manager.snapshot_now()
        assert log.update_downloads >= 1
        assert log.snapshot_count == 2

    def test_summary_fields(self):
        manager = self.make_running()
        manager.apply(RouteUpdate.announce(bp("1"), A))
        summary = manager.summary()
        assert summary["updates_received"] == 1
        assert summary["ot_size"] == 1


class TestQueueingDuringSnapshot:
    def test_updates_queued_and_drained(self):
        manager = SmaltaManager(width=8)
        manager.end_of_rib()
        manager.apply(RouteUpdate.announce(bp("10"), A))

        # Simulate an update arriving mid-snapshot by injecting it from the
        # snapshot's own observer path.
        manager._in_snapshot = True
        assert manager.apply(RouteUpdate.announce(bp("11"), B)) == []
        manager._in_snapshot = False
        downloads = manager.snapshot_now()
        assert manager.state.ot_table()[bp("11")] == B
        assert any(d.prefix == bp("11") for d in downloads)
        assert semantically_equivalent(
            manager.state.ot_table(), manager.fib_table(), 8
        )

    def test_snapshot_duration_recorded(self):
        manager = SmaltaManager(width=8)
        manager.end_of_rib()
        assert manager.last_snapshot_duration is not None
        assert manager.last_snapshot_duration >= 0


class TestPassThrough:
    def test_disabled_manager_mirrors_ot(self):
        manager = SmaltaManager(width=8, enabled=False)
        manager.loading = False
        manager.apply(RouteUpdate.announce(bp("10"), A))
        manager.apply(RouteUpdate.announce(bp("11"), A))
        assert manager.fib_size == 2  # no aggregation
        assert manager.fib_table() == manager.state.ot_table()

    def test_disabled_duplicate_announce_no_download(self):
        manager = SmaltaManager(width=8, enabled=False)
        manager.loading = False
        manager.apply(RouteUpdate.announce(bp("10"), A))
        assert manager.apply(RouteUpdate.announce(bp("10"), A)) == []

    def test_disabled_withdraw(self):
        manager = SmaltaManager(width=8, enabled=False)
        manager.loading = False
        manager.apply(RouteUpdate.announce(bp("10"), A))
        downloads = manager.apply(RouteUpdate.withdraw(bp("10")))
        assert [d.kind for d in downloads] == [DownloadKind.DELETE]
        assert manager.apply(RouteUpdate.withdraw(bp("10"))) == []

    def test_disabled_snapshot_is_noop(self):
        manager = SmaltaManager(width=8, enabled=False)
        manager.loading = False
        assert manager.snapshot_now() == []


class TestWidthChecks:
    """Every path that writes the OT refuses a prefix of another width
    before its first write: width-6 ``000/3`` would otherwise act on
    ``0.0.0.0/3`` of a width-32 table."""

    SLASH3 = Prefix.from_string("0.0.0.0/3")
    VALID = Prefix.from_string("10.0.0.0/8")

    def test_loading_withdraw_refused(self):
        manager = SmaltaManager(width=32)
        manager.apply(RouteUpdate.announce(self.SLASH3, A))
        with pytest.raises(ValueError, match="bits wide"):
            manager.apply(RouteUpdate.withdraw(Prefix.from_bits("000", 6)))
        assert manager.state.ot_table() == {self.SLASH3: A}

    def test_loading_burst_refused_whole(self):
        manager = SmaltaManager(width=32)
        burst = [
            RouteUpdate.announce(self.VALID, A),
            RouteUpdate.announce(Prefix.from_bits("101", 6), B),
        ]
        with pytest.raises(ValueError, match="bits wide"):
            manager.apply_batch(burst)
        assert manager.state.ot_table() == {}

    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("announce", [False, True])
    def test_passthrough_refuses(self, batched, announce):
        log = DownloadLog(keep_entries=True)
        manager = SmaltaManager(width=32, enabled=False, download_log=log)
        manager.apply(RouteUpdate.announce(self.SLASH3, A))
        manager.end_of_rib()
        before = list(log.downloads)
        stray = Prefix.from_bits("000", 6)
        update = (
            RouteUpdate.announce(stray, B)
            if announce
            else RouteUpdate.withdraw(stray)
        )
        with pytest.raises(ValueError, match="bits wide"):
            if batched:
                manager.apply_batch([RouteUpdate.announce(self.VALID, A), update])
            else:
                manager.apply(update)
        assert manager.state.ot_table() == {self.SLASH3: A}
        assert log.downloads == before
