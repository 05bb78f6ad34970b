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
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.downloads import FibDownload
from repro.core.equivalence import equivalence_counterexample
from repro.core.manager import SmaltaManager
from repro.core.ortc import ortc, ortc_from_trie
from repro.core.packed import PackedBackend
from repro.core.policy import PeriodicUpdateCountPolicy
from repro.core.smalta import SmaltaState
from repro.net.nexthop import Nexthop
from repro.net.prefix import Prefix
from repro.net.update import RouteUpdate

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


def make_state(backend: str) -> SmaltaState:
    """A fresh state on the named backend (packed: stride plan (3, 3) so
    the multi-level block machinery is exercised too)."""
    if backend == "packed":
        return SmaltaState(WIDTH, backend=PackedBackend(WIDTH, strides=(3, 3)))
    return SmaltaState(WIDTH)


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

    # The snapshot fast path and the entry-stream ORTC agree exactly on
    # the batched trie (which contains AT-only and bookkeeping nodes).
    assert ortc_from_trie(batched.trie) == ortc(
        batched.trie.ot_entries(), WIDTH
    )

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
