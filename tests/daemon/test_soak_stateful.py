"""Hypothesis stateful soak: the daemon under adversarial interleaving.

A :class:`~hypothesis.stateful.RuleBasedStateMachine` owns an event
loop hosting ONE daemon and interleaves, in whatever order hypothesis
chooses: tenant add/remove (both trie backends, with and without a
seeded fault plan), single-update and burst feeds, End-of-RIB markers,
forced snapshots and resyncs, drains, and control-socket probes.

Every action lands in a per-tenant **ledger**; the invariant — checked
mid-run by a rule and for every surviving tenant at teardown — is the
satellite's triple equality:

    registry ≡ download log ≡ replayed FIB

i.e. replaying the ledger through a fresh batch ``RouterPipeline`` with
the same config (and a fresh fault plan from the same ``(rates, seed)``
— :class:`FaultPlan` is deterministic by contract) reproduces the
tenant's download log byte for byte, its FIB/summary verbatim, and its
deterministic metric samples exactly. The VeriTable joint walk must
also agree with pairwise equivalence on every (OT, FIB, kernel) triple.
"""

from __future__ import annotations

import asyncio
from typing import Any, Optional

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from repro.core.downloads import DownloadLog
from repro.core.equivalence import jointly_equivalent, semantically_equivalent
from repro.core.policy import PeriodicUpdateCountPolicy
from repro.daemon.ctl import DaemonClient
from repro.daemon.server import AggregationDaemon
from repro.daemon.tenant import TenantConfig
from repro.faults.plan import FaultPlan, FaultRates
from repro.net.nexthop import Nexthop
from repro.net.prefix import Prefix
from repro.net.update import RouteUpdate
from repro.obs.export import flatten_samples
from repro.obs.observability import Observability
from repro.router.pipeline import RouterPipeline

WIDTH = 32
MAX_TENANTS = 5
NEXTHOPS = [Nexthop(1, "nh1"), Nexthop(2, "nh2"), Nexthop(3, "nh3")]

#: One spec: (prefix length, prefix bits, op) — op 0..2 announce that
#: nexthop, 3 withdraw.
spec_strategy = st.tuples(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=2**12 - 1),
    st.integers(min_value=0, max_value=3),
)


def to_update(spec: tuple[int, int, int], ts: float) -> RouteUpdate:
    length, bits, op = spec
    prefix = Prefix.from_bits(format(bits % (2**length), f"0{length}b"), WIDTH)
    if op == 3:
        return RouteUpdate.withdraw(prefix, ts)
    return RouteUpdate.announce(prefix, NEXTHOPS[op], ts)


def fresh_faults(spec: Optional[tuple[float, int]]) -> Optional[FaultPlan]:
    """A *new* plan from the stored (rate, seed) — decision-identical to
    the one the live tenant consumed (the FaultPlan determinism contract)."""
    if spec is None:
        return None
    rate, seed = spec
    return FaultPlan(
        FaultRates(drop=rate, error=rate, latency=rate, duplicate=rate),
        seed=seed,
    )


def deterministic_samples(registry_samples: dict[str, float]) -> dict[str, float]:
    """Registry samples minus wall-clock timings and daemon-side series.

    Durations depend on the host clock; ``tenant_*`` series exist only on
    the daemon side of the comparison. Everything else — update counts,
    download counters, sizes, fault/retry/resync accounting, burst
    histograms — must replay exactly.
    """
    return {
        key: value
        for key, value in registry_samples.items()
        if "duration" not in key
        and "seconds" not in key
        and not key.startswith("tenant_")
    }


class TenantModel:
    """The soak's book-keeping for one live tenant."""

    def __init__(
        self,
        backend: str,
        spacing: int,
        fault_spec: Optional[tuple[float, int]],
    ) -> None:
        self.backend = backend
        self.spacing = spacing
        self.fault_spec = fault_spec
        #: Every action fed, in order: ("update", u) / ("burst", [u...])
        #: / ("eor",) / ("snapshot",) / ("resync",)
        self.ledger: list[tuple[Any, ...]] = []

    def config(self, name: str) -> TenantConfig:
        return TenantConfig(
            name=name,
            width=WIDTH,
            policy=PeriodicUpdateCountPolicy(self.spacing),
            backend=self.backend,
            keep_entries=True,
            faults=fresh_faults(self.fault_spec),
        )

    def replay(self) -> tuple[RouterPipeline, DownloadLog, Observability]:
        """The batch ground truth: the ledger through a fresh pipeline."""
        obs = Observability()
        log = DownloadLog(keep_entries=True)
        pipeline = RouterPipeline(
            width=WIDTH,
            policy=PeriodicUpdateCountPolicy(self.spacing),
            backend=self.backend,
            obs=obs,
            faults=fresh_faults(self.fault_spec),
            download_log=log,
        )
        for entry in self.ledger:
            kind = entry[0]
            if kind == "update":
                pipeline.apply_update(entry[1])
            elif kind == "burst":
                pipeline.apply_burst(entry[1])
            elif kind == "eor":
                pipeline.end_of_rib()
            elif kind == "snapshot":
                pipeline.zebra.snapshot_now()
            elif kind == "resync":
                pipeline.zebra.channel.resync("manual")
        return pipeline, log, obs


class DaemonSoak(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.loop = asyncio.new_event_loop()
        self.model: dict[str, TenantModel] = {}
        self.counter = 0
        self.ts = 0.0
        self.daemon: AggregationDaemon
        self.client: DaemonClient
        self.run(self._start())

    def run(self, coro: Any) -> Any:
        return self.loop.run_until_complete(coro)

    async def _start(self) -> None:
        self.daemon = AggregationDaemon()
        await self.daemon.start()
        self.client = await DaemonClient.connect(
            "127.0.0.1", self.daemon.control_port
        )

    def next_ts(self) -> float:
        self.ts += 0.001
        return self.ts

    def pick(self, index: int) -> Optional[str]:
        names = sorted(self.model)
        if len(names) == 0:
            return None
        return names[index % len(names)]

    # -- rules: population -----------------------------------------------

    @rule(
        backend=st.sampled_from(["single", "packed"]),
        spacing=st.sampled_from([3, 7]),
        faulty=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def add_tenant(self, backend: str, spacing: int, faulty: bool, seed: int) -> None:
        if len(self.model) >= MAX_TENANTS:
            return
        self.counter += 1
        name = f"t{self.counter}"
        model = TenantModel(
            backend, spacing, (0.08, seed) if faulty else None
        )
        self.daemon.add_tenant(model.config(name), start=False)

        async def start_it() -> None:
            self.daemon.tenants[name].start()

        self.run(start_it())
        self.model[name] = model

    @rule(index=st.integers(min_value=0, max_value=9))
    def remove_tenant(self, index: int) -> None:
        name = self.pick(index)
        if name is None or len(self.model) <= 1:
            return
        # A tenant's full invariant is checked once more right before it
        # disappears — removal must not be a way to hide divergence.
        self.check_tenant(name)
        removed = self.run(self.client.call("tenant-remove", name=name))
        assert removed == {"removed": name}
        del self.model[name]

    # -- rules: feeding ---------------------------------------------------

    @rule(index=st.integers(min_value=0, max_value=9), spec=spec_strategy)
    def feed_single(self, index: int, spec: tuple[int, int, int]) -> None:
        name = self.pick(index)
        if name is None:
            return
        update = to_update(spec, self.next_ts())
        self.model[name].ledger.append(("update", update))
        self.run(self.daemon.tenants[name].feed_update(update))

    @rule(
        index=st.integers(min_value=0, max_value=9),
        specs=st.lists(spec_strategy, min_size=1, max_size=8),
    )
    def feed_burst(self, index: int, specs: list[tuple[int, int, int]]) -> None:
        name = self.pick(index)
        if name is None:
            return
        burst = [to_update(spec, self.next_ts()) for spec in specs]
        self.model[name].ledger.append(("burst", burst))
        self.run(self.daemon.tenants[name].feed_burst(burst))

    @rule(index=st.integers(min_value=0, max_value=9))
    def end_of_rib(self, index: int) -> None:
        name = self.pick(index)
        if name is None:
            return
        self.model[name].ledger.append(("eor",))
        self.run(self.daemon.tenants[name].end_of_rib())

    @rule(index=st.integers(min_value=0, max_value=9))
    def drain(self, index: int) -> None:
        name = self.pick(index)
        if name is None:
            return
        self.run(self.daemon.tenants[name].drain())
        assert self.daemon.tenants[name].queue_depth == 0

    # -- rules: control commands mid-run ----------------------------------

    @rule(index=st.integers(min_value=0, max_value=9))
    def force_snapshot(self, index: int) -> None:
        name = self.pick(index)
        if name is None:
            return
        result = self.run(self.client.call("snapshot", tenant=name))
        # the command drains first, so the ledger ordering is exact
        self.model[name].ledger.append(("snapshot",))
        assert result["burst"] >= 0

    @rule(index=st.integers(min_value=0, max_value=9))
    def force_resync(self, index: int) -> None:
        name = self.pick(index)
        if name is None:
            return
        self.run(self.daemon.tenants[name].drain())
        result = self.run(self.client.call("resync", tenant=name))
        self.model[name].ledger.append(("resync",))
        assert result["resyncs"] == 1

    @rule()
    def probe_control_plane(self) -> None:
        pong = self.run(self.client.call("ping"))
        assert pong["tenants"] == len(self.model)
        listing = self.run(self.client.call("tenant-list"))
        assert sorted(entry["name"] for entry in listing) == sorted(self.model)
        status = self.run(self.client.call("status"))
        assert set(status["tenants"]) == set(self.model)

    @rule(index=st.integers(min_value=0, max_value=9))
    def probe_routes_dump(self, index: int) -> None:
        name = self.pick(index)
        if name is None:
            return
        self.run(self.daemon.tenants[name].drain())
        from repro.daemon import protocol

        dump = self.run(self.client.call("routes-dump", tenant=name))
        manager = self.daemon.tenants[name].pipeline.zebra.manager
        assert dump["routes"] == protocol.encode_table(manager.fib_table())

    # -- the invariant ----------------------------------------------------

    @rule(index=st.integers(min_value=0, max_value=9))
    def check_one_tenant(self, index: int) -> None:
        name = self.pick(index)
        if name is not None:
            self.check_tenant(name)

    def check_tenant(self, name: str) -> None:
        self.run(self.daemon.tenants[name].drain())
        tenant = self.daemon.tenants[name]
        reference, ref_log, ref_obs = self.model[name].replay()
        try:
            # download log ≡ replayed download log, byte for byte
            assert tenant.download_log.downloads == ref_log.downloads
            # FIB (and OT, and kernel) ≡ replayed pipeline's
            manager = tenant.pipeline.zebra.manager
            ref_manager = reference.zebra.manager
            assert manager.fib_table() == ref_manager.fib_table()
            assert manager.state.ot_table() == ref_manager.state.ot_table()
            assert (
                tenant.pipeline.zebra.kernel.table()
                == reference.zebra.kernel.table()
            )
            assert manager.summary() == ref_manager.summary()
            # registry ≡ replayed registry (deterministic series)
            live = deterministic_samples(flatten_samples(tenant.obs.registry))
            replayed = deterministic_samples(flatten_samples(ref_obs.registry))
            assert live == replayed
            # the joint walk agrees with pairwise equivalence
            tables = [
                manager.state.ot_table(),
                manager.fib_table(),
                tenant.pipeline.zebra.kernel.table(),
            ]
            joint = jointly_equivalent(tables, WIDTH)
            pairwise = all(
                semantically_equivalent(tables[i], tables[j], WIDTH)
                for i in range(3)
                for j in range(i + 1, 3)
            )
            assert joint == pairwise
            # and the daemon's own verify command concurs
            verdict = self.run(self.client.call("verify", tenants=[name]))
            assert verdict["tenants"][name]["ok"] == joint
        finally:
            reference.close()

    def teardown(self) -> None:
        try:
            for name in sorted(self.model):
                self.check_tenant(name)
        finally:
            self.run(self.client.close())
            self.run(self.daemon.stop())
            self.loop.close()


DaemonSoak.TestCase.settings = settings(
    max_examples=12,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

TestDaemonSoak = DaemonSoak.TestCase
