"""Integration tests for the kernel / zebra / pipeline / CLI stack."""

from __future__ import annotations

import random

import pytest

from repro.bgp.attributes import PathAttributes
from repro.core.downloads import FibDownload
from repro.core.equivalence import semantically_equivalent
from repro.core.policy import PeriodicUpdateCountPolicy
from repro.net.prefix import Prefix
from repro.net.update import RouteUpdate
from repro.router.cli import RouterCli
from repro.router.kernel import KernelFib
from repro.router.pipeline import RouterPipeline
from repro.router.zebra import Zebra

from tests.conftest import make_nexthops

NH = make_nexthops(6)
A, B = NH[0], NH[1]


def bp(bits: str) -> Prefix:
    return Prefix.from_bits(bits, width=8)


class TestKernelFib:
    def test_apply_and_lookup(self):
        kernel = KernelFib(width=8)
        kernel.apply(FibDownload.insert(bp("10"), A))
        assert kernel.lookup(0b10000000) == A
        assert kernel.installs == 1

    def test_failed_uninstall_counted(self):
        kernel = KernelFib(width=8)
        kernel.apply(FibDownload.delete(bp("10")))
        assert kernel.failed_uninstalls == 1
        assert len(kernel) == 0

    def test_treebitmap_backing_agrees(self):
        dict_kernel = KernelFib(width=8)
        tbm_kernel = KernelFib(width=8, backing="treebitmap", initial_stride=4)
        downloads = [
            FibDownload.insert(bp("10"), A),
            FibDownload.insert(bp("1011"), B),
            FibDownload.delete(bp("10")),
        ]
        dict_kernel.apply_all(downloads)
        tbm_kernel.apply_all(downloads)
        for address in range(256):
            assert dict_kernel.lookup(address) == tbm_kernel.lookup(address)
        assert tbm_kernel.tbm is not None


class TestZebra:
    def make_loaded_zebra(self, enabled: bool = True) -> Zebra:
        zebra = Zebra(width=8, smalta_enabled=enabled)
        zebra.rib_install_kernel(bp("10"), A)
        zebra.rib_install_kernel(bp("11"), A)
        zebra.rib_install_kernel(bp("0"), B)
        zebra.end_of_rib()
        return zebra

    def test_aggregated_kernel(self):
        zebra = self.make_loaded_zebra()
        # 10->A and 11->A merge; kernel must be smaller than the RIB.
        assert len(zebra.kernel) < zebra.manager.ot_size
        assert semantically_equivalent(
            zebra.manager.state.ot_table(), zebra.kernel.table(), 8
        )

    def test_passthrough_kernel(self):
        zebra = self.make_loaded_zebra(enabled=False)
        assert zebra.kernel.table() == zebra.manager.state.ot_table()

    def test_uninstall_flows_through(self):
        zebra = self.make_loaded_zebra()
        zebra.rib_uninstall_kernel(bp("10"))
        assert semantically_equivalent(
            zebra.manager.state.ot_table(), zebra.kernel.table(), 8
        )

    def test_enable_disable_roundtrip(self):
        zebra = self.make_loaded_zebra(enabled=False)
        before = zebra.kernel.table()
        zebra.enable_smalta()
        assert len(zebra.kernel) < len(before)
        assert semantically_equivalent(before, zebra.kernel.table(), 8)
        zebra.disable_smalta()
        assert zebra.kernel.table() == before

    def test_enable_idempotent(self):
        zebra = self.make_loaded_zebra()
        assert zebra.enable_smalta() == []
        zebra.disable_smalta()
        assert zebra.disable_smalta() == []


class TestPipeline:
    def test_bgp_to_kernel_flow(self):
        pipeline = RouterPipeline(width=8)
        peers = NH[2:5]
        for peer in peers:
            pipeline.add_peer(peer)
        pipeline.announce(peers[0], bp("10"), PathAttributes(as_path=(1,)))
        pipeline.announce(peers[1], bp("10"), PathAttributes(as_path=(1, 2)))
        pipeline.announce(peers[2], bp("0"))
        for peer in peers:
            pipeline.peer_end_of_rib(peer)
        assert pipeline.kernel_matches_rib()
        # Best path for 10/2 is peers[0] (shorter AS path).
        assert pipeline.zebra.manager.state.ot_table()[bp("10")] == peers[0]

    def test_igp_mapping_applied(self):
        igp = NH[4:6]
        pipeline = RouterPipeline(width=8, igp_nexthops=igp)
        peer = NH[2]
        pipeline.add_peer(peer)
        pipeline.announce(peer, bp("10"))
        pipeline.peer_end_of_rib(peer)
        table = pipeline.zebra.manager.state.ot_table()
        assert table[bp("10")] in igp

    def test_trace_replay_with_snapshots(self, rng: random.Random):
        from repro.workloads.synthetic_table import TableProfile, generate_table
        from repro.workloads.synthetic_updates import generate_update_trace

        nexthops = NH[:4]
        profile = TableProfile(width=8)
        table = generate_table(120, nexthops, rng, profile=profile)
        trace = generate_update_trace(table, 400, nexthops, rng)
        pipeline = RouterPipeline(width=8, policy=PeriodicUpdateCountPolicy(100))
        pipeline.load_table(table)
        pipeline.end_of_rib()
        stats = pipeline.run_trace(trace)
        assert stats.updates_processed == 400
        assert stats.snapshots >= 4
        assert stats.delayed_updates == stats.snapshots
        assert pipeline.kernel_matches_rib()

    def test_graceful_peer_drop_is_fib_silent(self):
        pipeline = RouterPipeline(width=8)
        peers = NH[2:4]
        for peer in peers:
            pipeline.add_peer(peer)
        pipeline.announce(peers[0], bp("10"))
        pipeline.announce(peers[1], bp("0"))
        for peer in peers:
            pipeline.peer_end_of_rib(peer)
        kernel_before = pipeline.zebra.kernel.table()
        pipeline.drop_peer_graceful(peers[0], timestamp=0.0)
        # Graceful Restart: forwarding preserved, zero FIB churn.
        assert pipeline.zebra.kernel.table() == kernel_before
        # The restart timer lapses without the peer returning: flush.
        pipeline.expire_graceful(timestamp=1_000.0)
        assert pipeline.kernel_matches_rib()
        assert bp("10") not in pipeline.zebra.manager.state.ot_table()

    def test_peer_drop(self):
        pipeline = RouterPipeline(width=8)
        peers = NH[2:4]
        for peer in peers:
            pipeline.add_peer(peer)
        pipeline.announce(peers[0], bp("10"))
        pipeline.announce(peers[1], bp("10"), PathAttributes(as_path=(1, 2, 3)))
        for peer in peers:
            pipeline.peer_end_of_rib(peer)
        pipeline.drop_peer(peers[0])
        assert pipeline.kernel_matches_rib()
        assert pipeline.zebra.manager.state.ot_table()[bp("10")] == peers[1]


class TestCli:
    def make_cli(self) -> RouterCli:
        zebra = Zebra(width=8, smalta_enabled=True)
        zebra.rib_install_kernel(bp("10"), A)
        zebra.rib_install_kernel(bp("11"), A)
        zebra.end_of_rib()
        return RouterCli(zebra)

    def test_help_lists_commands(self):
        cli = self.make_cli()
        assert "smalta enable" in cli.execute("help")

    def test_status(self):
        cli = self.make_cli()
        output = cli.execute("show smalta status")
        assert "enabled" in output
        assert "original tree entries:   2" in output

    def test_fib_summary_and_dump(self):
        cli = self.make_cli()
        assert "kernel FIB: 1 entries" in cli.execute("show fib summary")
        assert "->" in cli.execute("show fib")

    def test_snapshot_command(self):
        cli = self.make_cli()
        assert "snapshot complete" in cli.execute("smalta snapshot")

    def test_enable_disable(self):
        cli = self.make_cli()
        assert "disabled" in cli.execute("smalta disable")
        assert "SMALTA is disabled" == cli.execute("smalta snapshot")
        assert "enabled" in cli.execute("smalta enable")

    def test_unknown_command(self):
        assert "unknown command" in self.make_cli().execute("reload in 5")

    def test_whitespace_tolerant(self):
        cli = self.make_cli()
        assert "enabled" in cli.execute("  show   SMALTA   status ")


class TestZebraBatch:
    def make_loaded_zebra(self) -> Zebra:
        zebra = Zebra(width=8, smalta_enabled=True)
        zebra.rib_install_kernel(bp("10"), A)
        zebra.rib_install_kernel(bp("11"), A)
        zebra.rib_install_kernel(bp("0"), B)
        zebra.end_of_rib()
        return zebra

    def test_kernel_tracks_fib_after_batch(self):
        zebra = self.make_loaded_zebra()
        zebra.apply_batch(
            [
                RouteUpdate.announce(bp("101"), B),
                RouteUpdate.withdraw(bp("11")),
                RouteUpdate.announce(bp("101"), A),  # flip, last wins
            ]
        )
        assert zebra.kernel.table() == zebra.manager.fib_table()
        assert semantically_equivalent(
            zebra.manager.state.ot_table(), zebra.kernel.table(), 8
        )
        assert zebra.manager.state.ot_table()[bp("101")] == A
        assert bp("11") not in zebra.manager.state.ot_table()

    def test_cancelling_pair_touches_nothing(self):
        zebra = self.make_loaded_zebra()
        before = zebra.kernel.table()
        installs = zebra.kernel.installs
        zebra.apply_batch(
            [
                RouteUpdate.announce(bp("1000"), B),
                RouteUpdate.withdraw(bp("1000")),
            ]
        )
        assert zebra.kernel.table() == before
        assert zebra.kernel.installs == installs

    def test_batch_matches_sequential_zebra(self):
        burst = [
            RouteUpdate.announce(bp("101"), B),
            RouteUpdate.withdraw(bp("0")),
            RouteUpdate.announce(bp("011"), A),
        ]
        batched = self.make_loaded_zebra()
        batched.apply_batch(burst)
        sequential = self.make_loaded_zebra()
        for update in burst:
            sequential.apply_update(update)
        assert (
            batched.manager.state.ot_table()
            == sequential.manager.state.ot_table()
        )
        assert semantically_equivalent(
            batched.kernel.table(), sequential.kernel.table(), 8
        )


class TestPipelineBatched:
    def make_replay(self, rng: random.Random):
        from repro.workloads.synthetic_table import TableProfile, generate_table
        from repro.workloads.synthetic_updates import generate_burst_trace

        nexthops = NH[:4]
        profile = TableProfile(width=8)
        table = generate_table(120, nexthops, rng, profile=profile)
        trace = generate_burst_trace(
            table, burst_count=8, burst_size=50, nexthops=nexthops, rng=rng
        )
        return table, trace

    def run_pipeline(self, table, trace, **kwargs):
        pipeline = RouterPipeline(width=8, policy=PeriodicUpdateCountPolicy(100))
        pipeline.load_table(table)
        pipeline.end_of_rib()
        stats = pipeline.run_trace(trace, **kwargs)
        return pipeline, stats

    def test_batched_trace_replay(self, rng: random.Random):
        table, trace = self.make_replay(rng)
        pipeline, stats = self.run_pipeline(
            table, trace, burst_gap_s=0.02
        )
        assert stats.updates_processed == len(trace)
        assert pipeline.kernel_matches_rib()

    def test_batched_matches_sequential(self, rng: random.Random):
        table, trace = self.make_replay(rng)
        seq_pipeline, seq_stats = self.run_pipeline(table, trace)
        bat_pipeline, bat_stats = self.run_pipeline(
            table, trace, burst_gap_s=0.02, batch_size=64
        )
        assert bat_stats.updates_processed == seq_stats.updates_processed
        assert (
            bat_pipeline.zebra.manager.state.ot_table()
            == seq_pipeline.zebra.manager.state.ot_table()
        )
        assert semantically_equivalent(
            bat_pipeline.zebra.kernel.table(),
            seq_pipeline.zebra.kernel.table(),
            8,
        )

    def test_size_only_batching(self, rng: random.Random):
        table, trace = self.make_replay(rng)
        pipeline, stats = self.run_pipeline(table, trace, batch_size=32)
        assert stats.updates_processed == len(trace)
        assert pipeline.kernel_matches_rib()


class TestToggleAccounting:
    """The download log must record what the toggle paths actually ship."""

    def make_mid_trace_zebra(self) -> Zebra:
        zebra = Zebra(width=8, smalta_enabled=True)
        zebra.rib_install_kernel(bp("10"), A)
        zebra.rib_install_kernel(bp("11"), A)
        zebra.rib_install_kernel(bp("0"), B)
        zebra.end_of_rib()
        zebra.rib_install_kernel(bp("010"), A)
        zebra.rib_uninstall_kernel(bp("11"))
        return zebra

    def test_log_total_tracks_kernel_operations_across_toggles(self):
        zebra = self.make_mid_trace_zebra()
        for toggle in (zebra.disable_smalta, zebra.enable_smalta):
            log_before = zebra.manager.log.total
            ops_before = zebra.kernel.operations
            delta = toggle()
            # What was logged is exactly what crossed the download arrow.
            assert zebra.manager.log.total - log_before == len(delta)
            assert zebra.kernel.operations - ops_before == len(delta)

    def test_toggle_delta_is_the_diff_not_the_snapshot_burst(self):
        zebra = self.make_mid_trace_zebra()
        before = zebra.kernel.table()
        delta = zebra.disable_smalta()
        # Replaying the returned delta over the old kernel table must
        # reconstruct the new one (i.e. the delta is self-describing).
        replay = dict(before)
        for op in delta:
            if op.nexthop is not None:
                replay[op.prefix] = op.nexthop
            else:
                replay.pop(op.prefix, None)
        assert replay == zebra.kernel.table()
        assert zebra.kernel.table() == zebra.manager.state.ot_table()

    def test_toggle_bursts_counted_as_snapshots(self):
        zebra = self.make_mid_trace_zebra()
        registry = zebra.obs.registry
        count_before = zebra.manager.log.snapshot_count
        zebra.disable_smalta()
        zebra.enable_smalta()
        assert zebra.manager.log.snapshot_count == count_before + 2
        assert registry.value("smalta_snapshots_total") == (
            zebra.manager.log.snapshot_count
        )
        assert zebra.obs.events.counts().get("snapshot", 0) == (
            zebra.manager.log.snapshot_count
        )


class TestKernelSizeGauge:
    def test_apply_refreshes_the_gauge(self):
        zebra = Zebra(width=8)
        registry = zebra.obs.registry
        # Direct per-op applies (the channel's delivery path) must keep
        # the scraped size fresh without an apply_all wrapper.
        zebra.kernel.apply(FibDownload.insert(bp("10"), A))
        assert registry.value("kernel_fib_size") == 1.0
        zebra.kernel.apply(FibDownload.insert(bp("11"), B))
        assert registry.value("kernel_fib_size") == 2.0
        zebra.kernel.apply(FibDownload.delete(bp("10")))
        assert registry.value("kernel_fib_size") == 1.0


class TestChannelCli:
    def make_cli(self) -> RouterCli:
        zebra = Zebra(width=8, smalta_enabled=True)
        zebra.rib_install_kernel(bp("10"), A)
        zebra.end_of_rib()
        return RouterCli(zebra)

    def test_channel_status(self):
        cli = self.make_cli()
        output = cli.execute("show channel status")
        assert "download channel: healthy" in output
        assert "none (reliable)" in output
        assert "full-sync reconciles:    0" in output

    def test_channel_resync(self):
        cli = self.make_cli()
        output = cli.execute("channel resync")
        assert "full sync" in output
        assert cli.zebra.channel.resyncs == 1
        assert cli.zebra.kernel.table() == cli.zebra.manager.fib_table()

    def test_help_lists_channel_commands(self):
        output = self.make_cli().execute("help")
        assert "show channel status" in output
        assert "channel resync" in output



class TestMalformedBurst:
    def test_burst_poisoned_after_a_valid_update_changes_nothing(self):
        """The tenant consumer's path: a wider prefix second in a burst
        must not leave the first update applied."""
        from repro.core.downloads import DownloadLog

        log = DownloadLog(keep_entries=True)
        pipeline = RouterPipeline(width=32, download_log=log)
        pipeline.end_of_rib()
        ten, eleven = Prefix.from_string("10.0.0.0/8"), Prefix.from_string("11.0.0.0/8")
        pipeline.apply_burst([RouteUpdate.announce(ten, A)])

        def observed():
            state = pipeline.zebra.manager.state
            kernel = pipeline.zebra.kernel.table()
            return state.ot_table(), state.at_table(), kernel, list(log.downloads)

        before = observed()
        stray = Prefix.from_bits("1" * 40, 64)
        with pytest.raises(ValueError, match="bits wide"):
            pipeline.apply_burst(
                [RouteUpdate.announce(eleven, B), RouteUpdate.announce(stray, B)]
            )
        assert observed() == before
