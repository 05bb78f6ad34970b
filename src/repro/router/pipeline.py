"""The full Figure-1 router: BGP sessions → best-path → zebra → kernel.

Replays per-peer BGP activity (or an already-selected update trace)
through the whole stack, modeling the snapshot delay the paper measures
in Section 4.3 ("during calls to snapshot, a small number of routing
events are delayed by a fraction of a second").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.bgp.attributes import PathAttributes
from repro.bgp.graceful_restart import GracefulRestartManager
from repro.bgp.rib import LocRib, Route
from repro.bgp.session import SessionManager
from repro.core.downloads import DownloadLog
from repro.core.policy import SnapshotPolicy
from repro.core.trie import FibTrie
from repro.faults.plan import FaultPlan
from repro.net.nexthop import Nexthop, RoundRobinIgpMapper
from repro.net.prefix import Prefix
from repro.net.update import RouteUpdate, UpdateKind, UpdateTrace, iter_bursts
from repro.obs.observability import Observability
from repro.router.channel import ChannelConfig
from repro.router.kernel import KernelFib
from repro.router.zebra import Zebra
from repro.verify.audit import AuditConfig


@dataclass
class PipelineStats:
    """What the experiments read off a run."""

    updates_processed: int = 0
    fib_downloads: int = 0
    snapshots: int = 0
    delayed_updates: int = 0
    total_delay_s: float = 0.0
    snapshot_durations: list[float] = field(default_factory=list)

    @property
    def mean_delay_s(self) -> float:
        if not self.delayed_updates:
            return 0.0
        return self.total_delay_s / self.delayed_updates


class RouterPipeline:
    """A complete simulated router."""

    def __init__(
        self,
        width: int = 32,
        igp_nexthops: Optional[Iterable[Nexthop]] = None,
        smalta_enabled: bool = True,
        policy: Optional[SnapshotPolicy] = None,
        kernel: Optional[KernelFib] = None,
        snapshot_delay_model: Optional[float] = None,
        audit: Optional[AuditConfig] = None,
        obs: Optional[Observability] = None,
        faults: Optional[FaultPlan] = None,
        channel_config: Optional[ChannelConfig] = None,
        backend: "str | FibTrie | None" = None,
        download_log: Optional[DownloadLog] = None,
    ) -> None:
        #: One Observability instance for the whole router; every layer
        #: below (zebra, manager, state, kernel, channel) shares its
        #: registry.
        self.obs = obs if obs is not None else Observability()
        self.loc_rib = LocRib()
        self.sessions = SessionManager()
        #: Injectable so equivalence harnesses can keep per-entry records
        #: (``DownloadLog(keep_entries=True)``) and diff them byte for byte.
        self.download_log = (
            download_log if download_log is not None else DownloadLog(keep_entries=False)
        )
        self.zebra = Zebra(
            kernel=kernel,
            width=width,
            smalta_enabled=smalta_enabled,
            policy=policy,
            download_log=self.download_log,
            audit=audit,
            obs=self.obs,
            faults=faults,
            channel_config=channel_config,
            backend=backend,
        )
        #: Lazily constructed on the first graceful peer drop (RFC 4724).
        self._graceful: Optional[GracefulRestartManager] = None
        self._c_updates = self.obs.registry.counter(
            "pipeline_updates_total", "updates pushed through the pipeline"
        )
        self._c_bursts = self.obs.registry.counter(
            "pipeline_bursts_total", "bursts pushed through the batch path"
        )
        self.igp_mapper = (
            RoundRobinIgpMapper(igp_nexthops) if igp_nexthops is not None else None
        )
        #: Seconds one snapshot stalls update processing; None means "use
        #: the measured wall-clock duration of each snapshot".
        self.snapshot_delay_model = snapshot_delay_model
        self.stats = PipelineStats()

    # -- BGP-side input ---------------------------------------------------------

    def add_peer(self, peer: Nexthop) -> None:
        self.sessions.add_peer(peer)

    def announce(
        self,
        peer: Nexthop,
        prefix: Prefix,
        attributes: PathAttributes = PathAttributes(),
        timestamp: float = 0.0,
    ) -> None:
        """A peer announces a route; ripple it through the stack."""
        updates = self.loc_rib.announce(Route(prefix, peer, attributes), timestamp)
        self.sessions.session(peer).announcements += 1
        self._forward(updates)

    def withdraw(self, peer: Nexthop, prefix: Prefix, timestamp: float = 0.0) -> None:
        updates = self.loc_rib.withdraw(prefix, peer, timestamp)
        self.sessions.session(peer).withdrawals += 1
        self._forward(updates)

    def peer_end_of_rib(self, peer: Nexthop) -> None:
        """On the last End-of-RIB, run SMALTA's initial snapshot."""
        if self.sessions.end_of_rib(peer):
            self.zebra.end_of_rib()
            self._account_snapshots()

    def drop_peer(self, peer: Nexthop, timestamp: float = 0.0) -> None:
        self.sessions.drop(peer)
        self._forward(self.loc_rib.drop_peer(peer, timestamp))

    def drop_peer_graceful(self, peer: Nexthop, timestamp: float = 0.0) -> None:
        """GR-capable session loss: routes are retained as stale and no
        FIB downloads occur (RFC 4724); call :meth:`expire_graceful` when
        the restart timer lapses without the peer returning."""
        if self._graceful is None:
            self._graceful = GracefulRestartManager(self.loc_rib)
        self.sessions.drop(peer)
        self._forward(self._graceful.peer_down_graceful(peer, timestamp))

    def expire_graceful(self, timestamp: float) -> None:
        """Flush stale routes of peers whose restart timer has lapsed."""
        if self._graceful is not None:
            self._forward(self._graceful.tick(timestamp))

    # -- pre-selected trace input (IGR mode) ----------------------------------------

    def load_table(self, table: dict[Prefix, Nexthop]) -> None:
        """Populate the OT directly (a FIB snapshot), still pre-End-of-RIB."""
        for prefix, nexthop in table.items():
            self.zebra.apply_update(RouteUpdate.announce(prefix, self._igp(nexthop)))

    def end_of_rib(self) -> None:
        self.zebra.end_of_rib()
        self._account_snapshots()

    def run_trace(
        self,
        trace: UpdateTrace,
        batch_size: Optional[int] = None,
        burst_gap_s: Optional[float] = None,
    ) -> PipelineStats:
        """Replay an already-best-path-selected trace (the IGR data set).

        With ``batch_size`` and/or ``burst_gap_s`` set, updates are
        grouped into bursts (:func:`~repro.net.update.iter_bursts`) and
        incorporated through the coalescing batch path — same final FIB,
        fewer algorithm runs and kernel downloads on flap-heavy feeds.
        """
        with self.obs.span("pipeline_run_trace", "whole-trace replay duration"):
            if batch_size is None and burst_gap_s is None:
                for update in trace:
                    self._forward([update])
                return self.stats
            for burst in iter_bursts(
                trace, max_gap_s=burst_gap_s, max_size=batch_size
            ):
                self._forward_batch(burst)
            return self.stats

    def apply_update(self, update: RouteUpdate) -> None:
        """Incorporate one already-selected update (the daemon feed path).

        Public wrapper over the same code :meth:`run_trace` uses per
        update, so a streamed feed and a replayed trace are literally the
        same code path — the byte-identity proofs rest on this.
        """
        self._forward([update])

    def apply_burst(self, updates: list[RouteUpdate]) -> None:
        """Incorporate one burst through the coalescing batch path."""
        self._forward_batch(updates)

    def close(self) -> None:
        """Release the trie backend's resources."""
        self.zebra.manager.close()

    # -- internals ---------------------------------------------------------------------

    def _igp(self, nexthop: Nexthop) -> Nexthop:
        return self.igp_mapper.map(nexthop) if self.igp_mapper else nexthop

    def _forward(self, updates: list[RouteUpdate]) -> None:
        for update in updates:
            if update.kind is UpdateKind.ANNOUNCE:
                assert update.nexthop is not None
                update = RouteUpdate.announce(
                    update.prefix, self._igp(update.nexthop), update.timestamp
                )
            snapshots_before = self.download_log.snapshot_count
            self.zebra.apply_update(update)
            self.stats.updates_processed += 1
            self._c_updates.inc()
            if self.download_log.snapshot_count > snapshots_before:
                self._account_snapshots()
        self.stats.fib_downloads = self.download_log.total

    def _forward_batch(self, updates: list[RouteUpdate]) -> None:
        """Push one burst through zebra's coalescing batch path."""
        mapped: list[RouteUpdate] = []
        for update in updates:
            if update.kind is UpdateKind.ANNOUNCE:
                assert update.nexthop is not None
                update = RouteUpdate.announce(
                    update.prefix, self._igp(update.nexthop), update.timestamp
                )
            mapped.append(update)
        snapshots_before = self.download_log.snapshot_count
        self.zebra.apply_batch(mapped)
        self.stats.updates_processed += len(mapped)
        self._c_updates.inc(len(mapped))
        self._c_bursts.inc()
        if self.download_log.snapshot_count > snapshots_before:
            self._account_snapshots()
        self.stats.fib_downloads = self.download_log.total

    def _account_snapshots(self) -> None:
        manager = self.zebra.manager
        new_durations = manager.snapshot_durations[len(self.stats.snapshot_durations):]
        for duration in new_durations:
            delay = (
                self.snapshot_delay_model
                if self.snapshot_delay_model is not None
                else duration
            )
            # Updates arriving during the stall are delayed on average by
            # half the snapshot duration; we charge one representative
            # delayed event per snapshot (the paper: "one in a few
            # thousand routing events will take slightly longer").
            self.stats.delayed_updates += 1
            self.stats.total_delay_s += delay
        self.stats.snapshot_durations.extend(new_durations)
        self.stats.snapshots = len(self.stats.snapshot_durations)
        self.stats.fib_downloads = self.download_log.total

    # -- verification hooks ------------------------------------------------------------

    def kernel_matches_rib(self) -> bool:
        """End-to-end check: the kernel forwards exactly like the OT."""
        from repro.core.equivalence import semantically_equivalent

        return semantically_equivalent(
            self.zebra.manager.state.ot_table(),
            self.zebra.kernel.table(),
            self.zebra.kernel.width,
        )
