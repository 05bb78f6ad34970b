"""SmaltaManager — the deployable layer of Figure 1.

The manager is what a router integrates (the Quagga port wraps exactly
this object): it consumes the route-resolution function's non-aggregated
update stream and produces the aggregated FIB-download stream, handling

- **startup**: updates received before End-of-RIB populate the OT only;
  the initial ``snapshot(OT)`` then downloads the whole AT (Section 2);
- **steady state**: each update runs Algorithm 1 or 2 and forwards the
  resulting downloads (~0.63 per update on the paper's traces);
- **re-optimization**: a :class:`~repro.core.policy.SnapshotPolicy`
  triggers ``snapshot(OT)``; updates arriving *during* a snapshot are
  queued and incorporated right after it completes, which is the paper's
  "sub-second delay once every few hours";
- **aggregation off**: with ``enabled=False`` the manager degrades to a
  pass-through (FIB = OT), the baseline every experiment compares against;
- **self-checking**: an :class:`~repro.verify.audit.AuditConfig` runs the
  invariant auditor inline (every N updates and/or every snapshot), the
  sanitizer-style mode the stateful tests and examples flip on.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Iterable, Optional

from repro.core.backend import backend_name_of, make_backend
from repro.core.downloads import DownloadLog, FibDownload
from repro.core.policy import ManualSnapshotPolicy, SnapshotPolicy
from repro.core.smalta import SmaltaState
from repro.core.trie import FibTrie
from repro.net.nexthop import Nexthop
from repro.net.prefix import Prefix
from repro.net.update import RouteUpdate, UpdateKind
from repro.obs.observability import Observability
from repro.obs.registry import LATENCY_BUCKETS_S
from repro.verify.audit import AuditConfig, AuditError
from repro.verify.markers import must_consume


class SmaltaManager:
    """Update stream in, FIB downloads out."""

    def __init__(
        self,
        width: int = 32,
        policy: Optional[SnapshotPolicy] = None,
        enabled: bool = True,
        download_log: Optional[DownloadLog] = None,
        clock: Callable[[], float] = time.perf_counter,
        audit: Optional[AuditConfig] = None,
        obs: Optional[Observability] = None,
        backend: "str | FibTrie | None" = None,
    ) -> None:
        #: The manager defaults to a live registry (summary() is a view
        #: over it); pass Observability.null() to run with accounting off
        #: (the overhead benchmark's baseline — summary()'s registry-
        #: backed fields then read zero, while DownloadLog attribution
        #: keeps working).
        self.obs = obs if obs is not None else Observability(clock=clock)
        #: ``backend`` selects the trie implementation: a name ("single"
        #: or "packed"), a ready-made instance, or None to honor the
        #: ``SMALTA_BACKEND`` environment variable (the CI matrix leg
        #: replays the whole suite with it set to "packed").
        if backend is None or isinstance(backend, str):
            trie_backend = make_backend(backend, width=width, obs=self.obs)
        else:
            trie_backend = backend
        self.backend_name = backend_name_of(trie_backend)
        self.state = SmaltaState(width, obs=self.obs, backend=trie_backend)
        self.policy: SnapshotPolicy = policy if policy is not None else (
            ManualSnapshotPolicy()
        )
        self.enabled = enabled
        # Note: DownloadLog has __len__, so an empty log is falsy — test
        # identity, not truth, or a caller-supplied log would be dropped.
        self.log = download_log if download_log is not None else DownloadLog(
            keep_entries=False
        )
        self.log.bind_metrics(self.obs.registry)
        self._clock = clock
        # AuditConfig is a frozen dataclass without __len__, but keep the
        # identity test anyway: AuditConfig.off() is "present but inert".
        self.audit = audit if audit is not None else AuditConfig.off()
        self._updates_since_audit = 0
        self.loading = True
        self.updates_since_snapshot = 0
        self.snapshot_durations: list[float] = []
        self._in_snapshot = False
        self._queued: list[RouteUpdate] = []
        registry = self.obs.registry
        self._c_updates = registry.counter(
            "smalta_updates_received_total", "route updates consumed"
        )
        self._c_queued = registry.counter(
            "smalta_updates_queued_total", "updates queued behind a snapshot"
        )
        self._c_audits = registry.counter(
            "smalta_audits_total", "inline invariant audits run"
        )
        self._c_audit_violations = registry.counter(
            "smalta_audit_violations_total", "violations found by inline audits"
        )
        self._g_since_snapshot = registry.gauge(
            "smalta_updates_since_snapshot", "updates since the last snapshot"
        )
        self._h_snapshot_s = registry.histogram(
            "smalta_snapshot_duration_seconds",
            "wall-clock duration of snapshot(OT)",
            buckets=LATENCY_BUCKETS_S,
        )

    # -- lifecycle -------------------------------------------------------

    def end_of_rib(self) -> list[FibDownload]:
        """All End-of-RIB markers received: run the initial snapshot.

        Its output is the complete AT as a burst of inserts (Section 2).
        Idempotent: calling again outside of loading is a plain snapshot.
        With aggregation disabled, the burst is the OT verbatim.
        """
        self.loading = False
        if not self.enabled:
            downloads_plain = self._full_table_download()
            self.log.record_snapshot_burst(downloads_plain)
            return downloads_plain
        return self.snapshot_now(trigger="end_of_rib")

    def _full_table_download(self) -> list[FibDownload]:
        """Aggregation off: the initial burst is the OT verbatim."""
        return [
            FibDownload.insert(prefix, nexthop)
            for prefix, nexthop in sorted(self.state.ot_table().items())
        ]

    # -- update path -------------------------------------------------------

    def apply(self, update: RouteUpdate) -> list[FibDownload]:
        """Incorporate one non-aggregated update; returns the FIB downloads.

        During a snapshot, updates are queued (and an empty download list
        returned); they are drained by :meth:`snapshot_now` once the
        snapshot's delta has been produced.
        """
        if self._in_snapshot:
            self._queued.append(update)
            self._c_queued.inc()
            return []
        self._c_updates.inc()
        if self.loading:
            self._apply_to_ot_only(update)
            return []
        downloads = self._apply_steady(update)
        if self._policy_due():
            downloads = downloads + self.snapshot_now(trigger="policy")
        return downloads

    def _apply_steady(self, update: RouteUpdate) -> list[FibDownload]:
        """The steady-state incorporate path for one update: run the
        algorithm, account the downloads, advance the audit sampler. The
        snapshot-policy check is the caller's job."""
        downloads = self._incorporate(update)
        self.log.record_update_downloads(downloads)
        self.updates_since_snapshot += 1
        self._g_since_snapshot.set(float(self.updates_since_snapshot))
        self._maybe_audit_update()
        return downloads

    def _policy_due(self) -> bool:
        """True when the snapshot policy asks for a re-optimization."""
        return self.enabled and self.policy.should_snapshot(
            self.updates_since_snapshot, self.state.at_size
        )

    def apply_many(self, updates: Iterable[RouteUpdate]) -> int:
        """Replay an iterable of updates; returns total downloads emitted."""
        total = 0
        for update in updates:
            total += len(self.apply(update))
        return total

    @must_consume
    def apply_batch(self, updates: Iterable[RouteUpdate]) -> list[FibDownload]:
        """Incorporate one burst of updates on its per-prefix net effect.

        Semantically equivalent to calling :meth:`apply` per update (the
        differential tests prove it), but a flapping prefix runs the
        update algorithms once instead of once per flap, and downloads
        that a later update in the burst reverts are never emitted. The
        burst counts as ``len(updates)`` received updates for snapshot
        policies and audit sampling; the snapshot policy is consulted
        once, after the whole burst.

        During a snapshot the burst is queued whole, like single updates.
        """
        batch = list(updates)
        if not batch:
            return []
        if self._in_snapshot:
            self._queued.extend(batch)
            self._c_queued.inc(len(batch))
            return []
        self._c_updates.inc(len(batch))
        if self.loading:
            for update in batch:
                self._apply_to_ot_only(update)
            return []
        if self.enabled:
            downloads = self.state.apply_batch(
                (update.prefix, update.nexthop) for update in batch
            )
        else:
            downloads = self._passthrough_batch(batch)
        self.log.record_update_downloads(downloads)
        self.obs.event(
            "batch_drain", updates=len(batch), downloads=len(downloads)
        )
        self.updates_since_snapshot += len(batch)
        self._g_since_snapshot.set(float(self.updates_since_snapshot))
        self._maybe_audit_update(len(batch))
        if self._policy_due():
            downloads = downloads + self.snapshot_now(trigger="policy")
        return downloads

    def _apply_to_ot_only(self, update: RouteUpdate) -> None:
        if update.kind is UpdateKind.ANNOUNCE:
            assert update.nexthop is not None
            self.state.load(update.prefix, update.nexthop)
        else:
            self.state.trie.set_ot(update.prefix, None)

    def _incorporate(self, update: RouteUpdate) -> list[FibDownload]:
        if not self.enabled:
            return self._passthrough(update)
        if update.kind is UpdateKind.ANNOUNCE:
            assert update.nexthop is not None
            return self.state.insert(update.prefix, update.nexthop)
        try:
            return self.state.delete(update.prefix)
        except KeyError:
            # A withdraw for a prefix we never had (stale trace head, or a
            # duplicate withdraw): nothing to do, like zebra's behaviour.
            return []

    def _passthrough(self, update: RouteUpdate) -> list[FibDownload]:
        """Aggregation disabled: the FIB mirrors the OT one-for-one."""
        state = self.state
        if update.kind is UpdateKind.ANNOUNCE:
            assert update.nexthop is not None
            old = state.trie.set_ot(update.prefix, update.nexthop)
            if old == update.nexthop:
                return []
            return [FibDownload.insert(update.prefix, update.nexthop)]
        old = state.trie.set_ot(update.prefix, None)
        if old is None:
            return []
        return [FibDownload.delete(update.prefix)]

    def _passthrough_batch(self, batch: list[RouteUpdate]) -> list[FibDownload]:
        """Batched pass-through: the net per-prefix OT delta, coalesced."""
        net: dict[Prefix, Optional[Nexthop]] = {}
        for update in batch:
            net[update.prefix] = update.nexthop
        downloads: list[FibDownload] = []
        for prefix, nexthop in net.items():
            old = self.state.trie.set_ot(prefix, nexthop)
            if old == nexthop:
                continue
            if nexthop is None:
                downloads.append(FibDownload.delete(prefix))
            else:
                downloads.append(FibDownload.insert(prefix, nexthop))
        return downloads

    # -- self-checking -----------------------------------------------------

    def _maybe_audit_update(self, count: int = 1) -> None:
        """Run the inline auditor if the every-N-updates trigger is due.

        A batch advances the sampling counter by its full size, so audit
        frequency per *update* is unchanged by batching.
        """
        config = self.audit
        if config.every_updates is None or not self.enabled:
            return
        self._updates_since_audit += count
        if self._updates_since_audit < config.every_updates:
            return
        self._updates_since_audit = 0
        self._c_audits.inc()
        self._run_audit(config, "update")

    def _run_audit(self, config: AuditConfig, trigger: str) -> None:
        """Run one audit pass, accounting violations before (re-)raising.

        Violations are counted and logged whether the config raises
        (strict mode) or merely reports, so the registry's
        ``smalta_audit_violations_total`` is trigger-agnostic.
        """
        try:
            violations = config.run(self.state, trigger)
        except AuditError as exc:
            self._c_audit_violations.inc(len(exc.violations))
            self.obs.event(
                "audit_violation", trigger=trigger, count=len(exc.violations)
            )
            raise
        if violations:
            self._c_audit_violations.inc(len(violations))
            self.obs.event(
                "audit_violation", trigger=trigger, count=len(violations)
            )

    # -- snapshot ------------------------------------------------------------

    @must_consume
    def snapshot_now(
        self, trigger: str = "manual", record: bool = True
    ) -> list[FibDownload]:
        """Run snapshot(OT), record the burst, then drain queued updates.

        ``trigger`` labels the emitted "snapshot" event: "manual" for
        direct calls, "policy" when a snapshot policy fired,
        "end_of_rib" for the initial table download.

        With ``record=False`` the AT is rebuilt but the burst is *not*
        accounted (no download-log record, no snapshot counter, no
        event) — the toggle path in :class:`~repro.router.zebra.Zebra`
        uses this because what ships to the kernel there is a
        ``diff_tables`` delta it logs itself, not this burst. Callers
        that deliberately discard the burst go through
        :meth:`rebuild_at` instead of dropping this return value.

        The drain is a single explicit worklist, not a recursive call
        back into :meth:`apply` (flow rule REPRO007): updates that
        arrive *during* a nested snapshot pass are pushed to the front
        of the queue, preserving the historical arrival ordering.
        """
        if not self.enabled:
            return []
        downloads = self._snapshot_once(trigger, record)
        pending: deque[RouteUpdate] = deque(self._take_queued())
        while pending:
            update = pending.popleft()
            self._c_updates.inc()
            if self.loading:
                self._apply_to_ot_only(update)
                continue
            downloads.extend(self._apply_steady(update))
            if self._policy_due():
                downloads.extend(self._snapshot_once("policy", True))
                pending.extendleft(reversed(self._take_queued()))
        return downloads

    def rebuild_at(self, trigger: str = "manual") -> int:
        """Rebuild the AT, *deliberately* discarding the download burst.

        The consuming wrapper for callers that only want the rebuilt
        table — e.g. the zebra enable toggle, which ships a
        ``diff_tables`` delta instead of the burst. Returns the burst
        size, keeping the drop visible and REPRO008-clean.
        """
        return len(self.snapshot_now(trigger=trigger, record=False))

    def _snapshot_once(self, trigger: str, record: bool) -> list[FibDownload]:
        """One snapshot pass: rebuild the AT and account the burst.

        Queued updates are *not* drained here — :meth:`snapshot_now`
        owns that worklist.
        """
        self._in_snapshot = True
        started = self._clock()
        try:
            burst = self.state.snapshot(count=record)
        finally:
            self._in_snapshot = False
        duration = self._clock() - started
        self.snapshot_durations.append(duration)
        self._h_snapshot_s.observe(duration)
        if record:
            self.log.record_snapshot_burst(burst)
            self.obs.event(
                "snapshot", trigger=trigger, burst=len(burst), duration_s=duration
            )
        self.updates_since_snapshot = 0
        self._g_since_snapshot.set(0.0)
        self.policy.on_snapshot(self.state.at_size)
        if self.audit.on_snapshot:
            self._updates_since_audit = 0
            self._c_audits.inc()
            self._run_audit(self.audit, "snapshot")
        return list(burst)

    def _take_queued(self) -> list[RouteUpdate]:
        """Claim the updates queued behind the snapshot flag."""
        queued, self._queued = self._queued, []
        return queued

    # -- introspection ---------------------------------------------------------

    @property
    def updates_received(self) -> int:
        """Route updates consumed, read off the metrics registry.

        With ``Observability.null()`` the counter is inert and this reads
        zero — the null path trades accounting for zero overhead.
        """
        return int(self._c_updates.value)

    @property
    def audits_run(self) -> int:
        """Inline audits run, read off the metrics registry."""
        return int(self._c_audits.value)

    def count_received(self, count: int = 1) -> None:
        """Advance the received-updates counter for updates incorporated
        outside :meth:`apply` (the out-of-band manager's direct path)."""
        self._c_updates.inc(count)

    @property
    def ot_size(self) -> int:
        return self.state.ot_size

    @property
    def at_size(self) -> int:
        return self.state.at_size

    @property
    def fib_size(self) -> int:
        """Entries the FIB holds: the AT when aggregating, else the OT."""
        return self.state.at_size if self.enabled else self.state.ot_size

    def fib_table(self) -> dict[Prefix, Nexthop]:
        return self.state.at_table() if self.enabled else self.state.ot_table()

    @property
    def last_snapshot_duration(self) -> Optional[float]:
        return self.snapshot_durations[-1] if self.snapshot_durations else None

    def summary(self) -> dict[str, float]:
        return {
            "updates_received": self.updates_received,
            "ot_size": self.ot_size,
            "fib_size": self.fib_size,
            "update_downloads": self.log.update_downloads,
            "snapshot_downloads": self.log.snapshot_downloads,
            "snapshots": self.log.snapshot_count,
            "mean_snapshot_burst": self.log.mean_snapshot_burst,
            "audits_run": self.audits_run,
        }

    def close(self) -> None:
        """Release the trie backend's resources."""
        self.state.trie.close()
