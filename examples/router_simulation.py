"""The Quagga-analogue router (paper Section 5), end to end.

A simulated router with three BGP peers: routes flow through best-path
selection into zebra, where the SMALTA layer intercepts the kernel
downloads. The CLI toggles aggregation at runtime, exactly like the
paper's Quagga port. The run is self-checking: the invariant auditor
(see docs/VERIFICATION.md) re-verifies the SMALTA state every 1000
updates and after every snapshot, raising immediately on corruption,
and the script exits 1 if the kernel ever forwards unlike the RIB.

Run:  python examples/router_simulation.py
"""

import random

from repro.bgp.attributes import PathAttributes
from repro.core.policy import PeriodicUpdateCountPolicy
from repro.net.nexthop import NexthopRegistry
from repro.router.cli import RouterCli
from repro.router.pipeline import RouterPipeline
from repro.verify import AuditConfig
from repro.workloads.synthetic_table import generate_table


def main() -> int:
    rng = random.Random(5)
    registry = NexthopRegistry()
    peers = registry.create_many(3, prefix="peer-")
    igp = registry.create_many(2, prefix="igp-")

    pipeline = RouterPipeline(
        igp_nexthops=igp,
        policy=PeriodicUpdateCountPolicy(5_000),
        audit=AuditConfig.every(1000),
    )
    for peer in peers:
        pipeline.add_peer(peer)
    cli = RouterCli(pipeline.zebra)

    # Each peer advertises its own view of a shared base table.
    base = generate_table(6_000, peers, rng)
    print(f"feeding {len(base):,} prefixes from {len(peers)} peers ...")
    for prefix, origin_peer in base.items():
        for peer in peers:
            if peer == origin_peer:
                attributes = PathAttributes(as_path=(65_001,))
            elif rng.random() < 0.7:
                attributes = PathAttributes(as_path=(65_001, 65_002, 65_003))
            else:
                continue  # this peer never heard the route
            pipeline.announce(peer, prefix, attributes)

    # End-of-RIB from every peer triggers the initial snapshot(OT).
    for peer in peers:
        pipeline.peer_end_of_rib(peer)

    print()
    print(cli.execute("show smalta status"))
    print(cli.execute("show fib summary"))
    checks = [pipeline.kernel_matches_rib()]
    print(f"kernel forwards exactly like the RIB: {checks[-1]}")

    # Some live routing activity: a peer session flaps.
    print("\n--- dropping peer-0 (session loss) ---")
    pipeline.drop_peer(peers[0])
    print(cli.execute("show fib summary"))
    checks.append(pipeline.kernel_matches_rib())
    print(f"kernel still correct: {checks[-1]}")

    # Runtime de-aggregation and re-aggregation through the CLI.
    print("\n--- CLI: smalta disable / enable ---")
    print(cli.execute("smalta disable"))
    print(cli.execute("show fib summary"))
    print(cli.execute("smalta enable"))
    print(cli.execute("show fib summary"))
    print(cli.execute("smalta snapshot"))
    checks.append(pipeline.kernel_matches_rib())
    print(f"kernel correct after the CLI round trip: {checks[-1]}")

    stats = pipeline.stats
    manager = pipeline.zebra.manager
    print(
        f"\nprocessed {stats.updates_processed:,} FIB updates, "
        f"{stats.fib_downloads:,} downloads, {stats.snapshots} snapshots "
        f"(mean stall {stats.mean_delay_s * 1000:.1f} ms)"
    )
    print(f"inline audits run: {manager.audits_run} (all clean)")
    return 0 if all(checks) else 1


if __name__ == "__main__":
    raise SystemExit(main())
