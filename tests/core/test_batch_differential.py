"""Differential proof of the batched update engine.

For random update sequences and random partitions of them into bursts,
three independently-computed systems must agree:

- **sequential** — one ``apply`` per update (the paper's Algorithms 1–2
  verbatim),
- **batched** — ``apply_batch`` per burst (per-prefix coalescing, one
  download drain per burst),
- **scratch** — ORTC run from scratch over the final table (the ground
  truth both incremental paths must stay semantically equal to).

Agreement means: identical Original Trees, semantically equivalent
Aggregated Trees (SMALTA's AT is path-dependent, so labels may differ;
forwarding behaviour may not — the TaCo check in
:mod:`repro.core.equivalence` decides), structural invariants intact,
and a net ``FibDownload`` stream that replays to exactly the batched
AT/FIB. This is the machinery that keeps every perf refactor honest.

A fourth axis crosses all of the above: every scenario replays on the
**packed** backend (array-packed OT/AT lookup planes over a shadow
trie), which must produce *byte-identical* download streams and tables
— not merely equivalent ones — against the reference single trie. The
packed replay additionally proves its incrementally patched arrays
equal to a from-scratch rebuild and its LPM answers equal to the
reference trie's over the whole address space.

A fifth axis checks the incremental snapshot, which redoes ORTC only on
the region the trie's writers marked: after *every* snapshot, at points
between bursts that hypothesis picks, the AT equals the entry-stream
``ortc()`` of the OT entry for entry, every preimage pointer and
deaggregate set equals what the deaggregate rule gives, and the burst
holds the same adds, Delete+Insert pairs and removes as ``diff_tables``
of the old AT against that scratch table. The OT also changes outside
Algorithms 1–2 before a snapshot: loading before End-of-RIB, the
pass-through while aggregation is off, and an out-of-band epoch.
"""

from __future__ import annotations

import random
from typing import Iterator, Optional

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.downloads import DownloadKind, FibDownload, diff_tables
from repro.core.equivalence import equivalence_counterexample
from repro.core.manager import SmaltaManager
from repro.core.ortc import ortc
from repro.core.outofband import OutOfBandManager
from repro.core.packed import PackedBackend
from repro.core.policy import PeriodicUpdateCountPolicy
from repro.core.smalta import SmaltaState
from repro.core.trie import FibTrie, Node
from repro.net.nexthop import DROP, Nexthop
from repro.net.prefix import Prefix
from repro.net.update import RouteUpdate
from repro.router.zebra import Zebra

from tests.conftest import make_nexthops

WIDTH = 6
NEXTHOPS = make_nexthops(4)


def to_prefix(length: int, bits: int, width: int = WIDTH) -> Prefix:
    top = bits & ((1 << length) - 1)
    return Prefix(top << (width - length), length, width)


def op_strategy():
    """(announce?, length, bits, nexthop_index, new_burst?) tuples."""
    return st.tuples(
        st.booleans(),
        st.integers(min_value=1, max_value=WIDTH),
        st.integers(min_value=0, max_value=(1 << WIDTH) - 1),
        st.integers(min_value=0, max_value=len(NEXTHOPS) - 1),
        st.booleans(),
    )


def decode(raw) -> tuple[list[tuple[Prefix, Nexthop | None]], list[int]]:
    """Ops plus burst boundaries (indices where a new burst starts)."""
    ops: list[tuple[Prefix, Nexthop | None]] = []
    boundaries: list[int] = []
    for announce, length, bits, nh_index, new_burst in raw:
        if new_burst or not ops:
            boundaries.append(len(ops))
        prefix = to_prefix(length, bits)
        ops.append((prefix, NEXTHOPS[nh_index] if announce else None))
    return ops, boundaries


def bursts_of(ops, boundaries):
    for index, start in enumerate(boundaries):
        end = boundaries[index + 1] if index + 1 < len(boundaries) else len(ops)
        yield ops[start:end]


BACKENDS = ("single", "packed")


def make_trie(backend: str) -> FibTrie:
    """A fresh trie of the named backend (packed: stride plan (3, 3) so
    the multi-level block machinery is exercised too)."""
    if backend == "packed":
        return PackedBackend(WIDTH, strides=(3, 3))
    return FibTrie(WIDTH)


def make_state(backend: str) -> SmaltaState:
    """A fresh state on the named backend."""
    return SmaltaState(WIDTH, backend=make_trie(backend))


def run_sequential(
    ops, backend: str = "single"
) -> tuple[SmaltaState, dict[Prefix, Nexthop], list[FibDownload]]:
    """One apply per update, with the manager's withdraw tolerance."""
    state = make_state(backend)
    shadow: dict[Prefix, Nexthop] = {}
    downloads: list[FibDownload] = []
    for prefix, nexthop in ops:
        if nexthop is None:
            try:
                downloads.extend(state.delete(prefix))
            except KeyError:
                pass
            shadow.pop(prefix, None)
        else:
            downloads.extend(state.insert(prefix, nexthop))
            shadow[prefix] = nexthop
    return state, shadow, downloads


def replay(downloads: list[FibDownload]) -> dict[Prefix, Nexthop]:
    """What a kernel FIB holds after absorbing the download stream."""
    fib: dict[Prefix, Nexthop] = {}
    for download in downloads:
        if download.nexthop is None:
            fib.pop(download.prefix, None)
        else:
            fib[download.prefix] = download.nexthop
    return fib


def check_agreement(ops, boundaries) -> None:
    """The core differential: sequential ≡ batched ≡ ORTC-from-scratch,
    each replayed on both trie backends with byte-identical streams."""
    sequential, shadow, seq_downloads = run_sequential(ops)

    batched = SmaltaState(WIDTH)
    downloads: list[FibDownload] = []
    for burst in bursts_of(ops, boundaries):
        downloads.extend(batched.apply_batch(burst))

    # Original Trees: exactly the shadow table on both paths.
    assert sequential.ot_table() == shadow
    assert batched.ot_table() == shadow

    # Aggregated Trees: semantically equivalent to the scratch optimum
    # (hence to each other), and structurally sound.
    scratch = ortc(shadow.items(), WIDTH)
    for state in (sequential, batched):
        mismatch = equivalence_counterexample(state.at_table(), scratch, WIDTH)
        assert mismatch is None, mismatch
        state.verify()

    # The batched download stream replays to exactly the batched AT.
    assert replay(downloads) == batched.at_table()

    # Backend differential: the packed backend must be byte-identical
    # to the reference trie — same download stream entry for entry (not
    # merely equivalent), same OT, same AT labels — on both the
    # sequential and the batched replay.
    packed_seq, packed_shadow, packed_seq_downloads = run_sequential(
        ops, backend="packed"
    )
    assert packed_shadow == shadow
    assert packed_seq_downloads == seq_downloads
    assert packed_seq.ot_table() == shadow
    assert packed_seq.at_table() == sequential.at_table()
    packed_seq.verify()

    packed_batched = make_state("packed")
    packed_downloads: list[FibDownload] = []
    for burst in bursts_of(ops, boundaries):
        packed_downloads.extend(packed_batched.apply_batch(burst))
    assert packed_downloads == downloads
    assert packed_batched.ot_table() == shadow
    assert packed_batched.at_table() == batched.at_table()
    packed_batched.verify()

    # The packed planes themselves: incremental patching ≡ rebuild from
    # scratch, and the array LPM ≡ the reference trie's node walk over
    # the entire width-6 address space, both label planes.
    assert packed_batched.trie.packed_divergence() is None
    for address in range(1 << WIDTH):
        assert packed_batched.trie.lookup_ot(address) == batched.trie.lookup_ot(
            address
        )
        assert packed_batched.trie.lookup_at(address) == batched.trie.lookup_at(
            address
        )


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.lists(op_strategy(), min_size=1, max_size=60))
def test_batch_differential_property(raw):
    ops, boundaries = decode(raw)
    check_agreement(ops, boundaries)


def test_batch_differential_200_seeded_sequences():
    """The acceptance floor, deterministically: 200 random sequences with
    random burst partitions, every one passing the full differential."""
    rng = random.Random(20110712)
    for _ in range(200):
        ops = []
        boundaries = [0]
        for index in range(rng.randint(1, 40)):
            length = rng.randint(1, WIDTH)
            prefix = to_prefix(length, rng.getrandbits(length))
            if rng.random() < 0.6:
                ops.append((prefix, NEXTHOPS[rng.randrange(len(NEXTHOPS))]))
            else:
                ops.append((prefix, None))
            if rng.random() < 0.3 and index + 1 < 40:
                boundaries.append(len(ops))
        boundaries = sorted(set(b for b in boundaries if b < len(ops)))
        check_agreement(ops, boundaries)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.lists(op_strategy(), min_size=1, max_size=40))
def test_manager_batch_matches_sequential_with_snapshots(raw):
    """Manager-level differential with snapshot policies interleaved:
    apply_batch per burst ≡ apply per update, both forwarding to a FIB
    that ends identical to the live AT."""
    ops, boundaries = decode(raw)

    def to_update(prefix, nexthop):
        if nexthop is None:
            return RouteUpdate.withdraw(prefix)
        return RouteUpdate.announce(prefix, nexthop)

    seq = SmaltaManager(width=WIDTH, policy=PeriodicUpdateCountPolicy(7))
    seq.end_of_rib()
    fib_seq: list[FibDownload] = []
    for prefix, nexthop in ops:
        fib_seq.extend(seq.apply(to_update(prefix, nexthop)))

    bat = SmaltaManager(width=WIDTH, policy=PeriodicUpdateCountPolicy(7))
    bat.end_of_rib()
    fib_bat: list[FibDownload] = []
    for burst in bursts_of(ops, boundaries):
        fib_bat.extend(
            bat.apply_batch(to_update(prefix, nexthop) for prefix, nexthop in burst)
        )

    assert seq.state.ot_table() == bat.state.ot_table()
    assert seq.updates_received == bat.updates_received == len(ops)
    mismatch = equivalence_counterexample(
        seq.fib_table(), bat.fib_table(), WIDTH
    )
    assert mismatch is None, mismatch
    # Each download stream replays to its own manager's FIB exactly.
    assert replay(fib_seq) == seq.fib_table()
    assert replay(fib_bat) == bat.fib_table()


# -- every snapshot against the scratch ORTC -------------------------------


def preimages_by_rule(trie: FibTrie) -> Iterator[tuple[Node, Optional[Node]]]:
    """Every node with the preimage the deaggregate rule gives it.

    An AT node that is not itself an OT entry is a deaggregate of the
    unrouted context when labelled DROP, else of its nearest enclosing
    OT entry when that entry carries the same nexthop; every other node
    has no preimage.
    """
    stack: list[tuple[Node, Optional[Node]]] = [(trie.root, None)]
    while stack:
        node, nearest_ot = stack.pop()
        preimage = None
        if node.d_a is not None and node.d_o is None:
            if node.d_a == DROP:
                preimage = trie.nil_node
            elif nearest_ot is not None and nearest_ot.d_o == node.d_a:
                preimage = nearest_ot
        yield node, preimage
        here = node if node.d_o is not None else nearest_ot
        stack.extend((child, here) for child in node.children())


def delta_groups(
    burst: list[FibDownload],
) -> tuple[list[FibDownload], list[FibDownload], list[FibDownload]]:
    """A snapshot burst in ``diff_tables``' three groups: the inserts of
    added prefixes, the Delete+Insert pairs of changed ones, and the
    deletes of removed ones."""
    index = 0
    while index < len(burst) and burst[index].kind is DownloadKind.INSERT:
        index += 1
    adds = burst[:index]
    start = index
    while (
        index + 1 < len(burst)
        and burst[index].kind is DownloadKind.DELETE
        and burst[index + 1].kind is DownloadKind.INSERT
        and burst[index + 1].prefix == burst[index].prefix
    ):
        index += 2
    changes = burst[start:index]
    removes = burst[index:]
    assert all(d.kind is DownloadKind.DELETE for d in removes), burst
    return adds, changes, removes


def check_snapshot(
    state: SmaltaState,
    at_before: dict[Prefix, Nexthop],
    burst: Optional[list[FibDownload]],
) -> None:
    """The state right after a snapshot equals a from-scratch rebuild.

    ``burst`` is None where the caller discards it (the toggle and
    out-of-band paths ship their own delta).
    """
    trie = state.trie
    scratch = ortc(trie.ot_entries(), WIDTH)
    assert sorted(state.at_table().items()) == sorted(scratch.items())

    expected_deaggs: dict[int, set[Node]] = {}
    for node, preimage in preimages_by_rule(trie):
        assert node.pi is preimage, (node, node.pi, preimage)
        if preimage is not None:
            expected_deaggs.setdefault(id(preimage), set()).add(node)
    for holder in [*trie.iter_nodes(), trie.nil_node]:
        assert (holder.deaggs or set()) == expected_deaggs.get(id(holder), set())
    state.verify()

    if burst is None:
        return
    adds, changes, removes = delta_groups(burst)
    want_adds, want_changes, want_removes = delta_groups(
        diff_tables(at_before, scratch)
    )
    # The snapshot emits adds in pass 3's order over the live trie, the
    # scratch ORTC in its order over the OT alone: same set, and the
    # changes and removes (both in the old AT's prefix order) match
    # list for list.
    assert sorted(adds, key=lambda d: d.prefix) == sorted(
        want_adds, key=lambda d: d.prefix
    )
    assert changes == want_changes
    assert removes == want_removes


def checked_snapshot(state: SmaltaState) -> list[FibDownload]:
    at_before = state.at_table()
    burst = state.snapshot()
    check_snapshot(state, at_before, burst)
    return burst


def update_of(raw: tuple[bool, int, int, int]) -> tuple[Prefix, Optional[Nexthop]]:
    announce, length, bits, nh_index = raw
    return to_prefix(length, bits), NEXTHOPS[nh_index] if announce else None


def burst_strategy():
    """A burst of (prefix, nexthop-or-None) updates, the default route
    included."""
    return st.lists(
        st.tuples(
            st.booleans(),
            st.integers(min_value=0, max_value=WIDTH),
            st.integers(min_value=0, max_value=(1 << WIDTH) - 1),
            st.integers(min_value=0, max_value=len(NEXTHOPS) - 1),
        ).map(update_of),
        max_size=12,
    )


def as_update(prefix: Prefix, nexthop: Optional[Nexthop]) -> RouteUpdate:
    if nexthop is None:
        return RouteUpdate.withdraw(prefix)
    return RouteUpdate.announce(prefix, nexthop)


def run_snapshot_rounds(
    loaded, rounds, backend: str
) -> list[list[FibDownload]]:
    """Load, snapshot, then bursts with a snapshot after the flagged
    ones and one at the end, every snapshot checked."""
    state = make_state(backend)
    for prefix, nexthop in loaded:
        if nexthop is not None:
            state.load(prefix, nexthop)
    stream = [checked_snapshot(state)]
    for burst, snapshot_after in rounds:
        stream.append(state.apply_batch(burst))
        if snapshot_after:
            stream.append(checked_snapshot(state))
    stream.append(checked_snapshot(state))
    return stream


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    burst_strategy(),
    st.lists(st.tuples(burst_strategy(), st.booleans()), min_size=1, max_size=8),
)
def test_every_snapshot_matches_scratch_ortc(loaded, rounds):
    streams = [run_snapshot_rounds(loaded, rounds, backend) for backend in BACKENDS]
    assert streams[0] == streams[1]


def test_every_snapshot_matches_scratch_ortc_seeded():
    """The same check over 150 seeded runs, deterministically."""
    rng = random.Random(20111206)

    def random_burst():
        return [
            update_of(
                (
                    rng.random() < 0.6,
                    rng.randint(0, WIDTH),
                    rng.getrandbits(WIDTH),
                    rng.randrange(len(NEXTHOPS)),
                )
            )
            for _ in range(rng.randint(0, 12))
        ]

    for _ in range(150):
        loaded = random_burst()
        rounds = [
            (random_burst(), rng.random() < 0.5) for _ in range(rng.randint(1, 8))
        ]
        streams = [
            run_snapshot_rounds(loaded, rounds, backend) for backend in BACKENDS
        ]
        assert streams[0] == streams[1]


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(burst_strategy(), burst_strategy(), burst_strategy())
def test_loading_then_end_of_rib(loading, before_eor_snapshot, after):
    """Announces and withdraws while loading reach only the OT; the
    End-of-RIB snapshot then builds the whole AT."""
    for backend in BACKENDS:
        manager = SmaltaManager(width=WIDTH, backend=make_trie(backend))
        for prefix, nexthop in loading + before_eor_snapshot:
            assert manager.apply(as_update(prefix, nexthop)) == []
        burst = manager.end_of_rib()
        check_snapshot(manager.state, {}, burst)
        manager.apply_batch(as_update(*update) for update in after)
        at_before = manager.state.at_table()
        check_snapshot(manager.state, at_before, manager.snapshot_now())


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(burst_strategy(), burst_strategy(), burst_strategy(), burst_strategy())
def test_pass_through_then_enable(table, aggregated, passed_through, after):
    """While aggregation is off, updates reach the OT and the kernel but
    not the AT; turning it back on snapshots the marked region."""
    for backend in BACKENDS:
        zebra = Zebra(width=WIDTH, backend=make_trie(backend))
        manager = zebra.manager
        for prefix, nexthop in table:
            zebra.apply_update(as_update(prefix, nexthop))
        zebra.end_of_rib()
        zebra.apply_batch(as_update(*update) for update in aggregated)
        zebra.disable_smalta()
        for prefix, nexthop in passed_through:
            zebra.apply_update(as_update(prefix, nexthop))
        zebra.enable_smalta()
        check_snapshot(manager.state, {}, None)
        assert zebra.kernel.table() == manager.state.at_table()
        zebra.apply_batch(as_update(*update) for update in after)
        at_before = manager.state.at_table()
        check_snapshot(manager.state, at_before, zebra.snapshot_now())
        assert zebra.kernel.table() == manager.state.at_table()


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(burst_strategy(), burst_strategy(), burst_strategy(), burst_strategy())
def test_out_of_band_epoch(table, aggregated, mid_epoch, after):
    """Updates during an out-of-band epoch write the OT directly; the
    epoch's one snapshot folds them in."""
    for backend in BACKENDS:
        manager = SmaltaManager(width=WIDTH, backend=make_trie(backend))
        for prefix, nexthop in table:
            manager.apply(as_update(prefix, nexthop))
        manager.end_of_rib()
        manager.apply_batch(as_update(*update) for update in aggregated)
        out_of_band = OutOfBandManager(manager)
        out_of_band.begin_snapshot()
        for prefix, nexthop in mid_epoch:
            out_of_band.apply(as_update(prefix, nexthop))
        fib = out_of_band.epoch_fib_table()
        swap = out_of_band.finish_snapshot()
        check_snapshot(manager.state, {}, None)
        for download in swap:
            if download.nexthop is None:
                del fib[download.prefix]
            else:
                fib[download.prefix] = download.nexthop
        assert fib == manager.state.at_table()
        manager.apply_batch(as_update(*update) for update in after)
        at_before = manager.state.at_table()
        check_snapshot(manager.state, at_before, manager.snapshot_now())
