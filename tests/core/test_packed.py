"""PackedBackend unit + property tests.

The heavy byte-identity proof lives in the differential harness and the
golden trace; this file covers the packed machinery itself — stride
planning, block lifecycle (allocation, backfill, freelist reuse), the
hypothesis round-trip ``PackedBackend`` ≡ reference trie LPM ≡ linear
oracle, and the incremental-patch ≡ rebuild self-check.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.backend import backend_name_of, make_backend, resolve_backend_name
from repro.core.packed import PackedBackend, plan_strides
from repro.core.trie import FibTrie
from repro.fib.linear import LinearFib
from repro.net.nexthop import DROP, Nexthop
from repro.net.prefix import Prefix

WIDTH = 6
NEXTHOPS = [Nexthop(i, f"nh{i}") for i in range(4)]


def to_prefix(length: int, bits: int, width: int = WIDTH) -> Prefix:
    top = bits & ((1 << length) - 1)
    return Prefix(top << (width - length), length, width)


class TestStridePlan:
    def test_plans(self):
        assert plan_strides(6) == (6,)
        assert plan_strides(16) == (16,)
        assert plan_strides(20) == (16, 4)
        assert plan_strides(32) == (16, 8, 8)
        assert plan_strides(128) == (16,) + (8,) * 14

    def test_plans_tile_the_width(self):
        for width in range(1, 129):
            strides = plan_strides(width)
            assert sum(strides) == width
            assert all(s >= 1 for s in strides)

    def test_invalid(self):
        with pytest.raises(ValueError):
            plan_strides(0)
        with pytest.raises(ValueError):
            PackedBackend(8, strides=(4, 3))  # does not tile 8
        with pytest.raises(ValueError):
            PackedBackend(8, strides=(8, 0))


class TestBackendRegistry:
    def test_make_and_name(self):
        backend = make_backend("packed", width=WIDTH)
        assert isinstance(backend, PackedBackend)
        assert backend_name_of(backend) == "packed"
        assert backend_name_of(FibTrie(WIDTH)) == "single"

    def test_env_selection(self, monkeypatch):
        monkeypatch.setenv("SMALTA_BACKEND", " PACKED ")
        assert resolve_backend_name() == "packed"
        assert isinstance(make_backend(width=WIDTH), PackedBackend)

    def test_default_is_single(self, monkeypatch):
        monkeypatch.delenv("SMALTA_BACKEND", raising=False)
        assert resolve_backend_name() == "single"
        assert type(make_backend(width=WIDTH)) is FibTrie

    def test_unknown_name_raises_naming_it(self, monkeypatch):
        error = r"'sharded' \(known: packed, single\)"
        with pytest.raises(ValueError, match=error):
            make_backend("sharded", width=WIDTH)
        monkeypatch.setenv("SMALTA_BACKEND", "sharded")
        with pytest.raises(ValueError, match=error):
            make_backend(width=WIDTH)

    def test_strides_option(self):
        backend = PackedBackend(WIDTH, strides=(2, 2, 2))
        assert backend.strides == (2, 2, 2)


def op_strategy():
    return st.tuples(
        st.booleans(),  # announce?
        st.integers(min_value=0, max_value=WIDTH),
        st.integers(min_value=0, max_value=(1 << WIDTH) - 1),
        st.integers(min_value=0, max_value=len(NEXTHOPS) - 1),
        st.booleans(),  # drive the AT plane too?
    )


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    st.lists(op_strategy(), min_size=1, max_size=80),
    st.sampled_from([None, (3, 3), (2, 2, 2), (1, 5)]),
)
def test_packed_round_trips_reference_lpm(raw, strides):
    """The hypothesis round-trip: after any op sequence, on any stride
    plan, the packed planes answer every address exactly like the
    reference trie and the linear oracle — and the incremental arrays
    equal a from-scratch rebuild."""
    reference = FibTrie(WIDTH)
    packed = PackedBackend(WIDTH, strides=strides)
    oracle = LinearFib(WIDTH)
    live: dict[Prefix, Nexthop] = {}
    for announce, length, bits, nh_index, at_too in raw:
        prefix = to_prefix(length, bits)
        nexthop = NEXTHOPS[nh_index] if announce else None
        reference.set_ot(prefix, nexthop)
        packed.set_ot(prefix, nexthop)
        if at_too:
            reference.set_at(prefix, nexthop)
            packed.set_at(prefix, nexthop)
        if nexthop is None:
            if prefix in live:
                del live[prefix]
                oracle.delete(prefix)
        else:
            live[prefix] = nexthop
            oracle.insert(prefix, nexthop)
    assert packed.ot_table() == live == reference.ot_table()
    for address in range(1 << WIDTH):
        expected = oracle.lookup(address)
        assert reference.lookup_ot(address) == expected
        assert packed.lookup_ot(address) == expected
        assert packed.lookup_at(address) == reference.lookup_at(address)
    assert packed.packed_divergence() is None


class TestBlockLifecycle:
    def test_deep_entry_allocates_and_frees_blocks(self):
        packed = PackedBackend(WIDTH, strides=(2, 2, 2))
        plane = packed._ot_plane
        assert plane.live_slot_count() == 4  # root block only
        deep = to_prefix(6, 0b101011)
        packed.set_ot(deep, NEXTHOPS[0])
        assert plane.live_slot_count() == 12  # + one block per level
        packed.set_ot(deep, None)
        assert plane.live_slot_count() == 4  # cascaded free
        assert [len(f) for f in plane.free] == [0, 1, 1]

    def test_freelist_reuse_backfills(self):
        packed = PackedBackend(WIDTH, strides=(2, 2, 2))
        cover = to_prefix(1, 0b1)
        packed.set_ot(cover, NEXTHOPS[1])
        deep = to_prefix(6, 0b110101)
        packed.set_ot(deep, NEXTHOPS[0])
        packed.set_ot(deep, None)
        # Recycled blocks must be re-backfilled from the covering entry.
        other = to_prefix(6, 0b101010)
        packed.set_ot(other, NEXTHOPS[2])
        assert packed._ot_plane.free == [[], [], []]  # both reused
        assert packed.lookup_ot(0b101010) == NEXTHOPS[2]
        assert packed.lookup_ot(0b101011) == NEXTHOPS[1]  # backfilled cover
        assert packed.lookup_ot(0b000000) is DROP
        assert packed.packed_divergence() is None

    def test_sibling_entries_share_blocks(self):
        packed = PackedBackend(WIDTH, strides=(3, 3))
        a = to_prefix(6, 0b101000)
        b = to_prefix(6, 0b101001)
        packed.set_ot(a, NEXTHOPS[0])
        packed.set_ot(b, NEXTHOPS[1])
        assert packed._ot_plane.live_slot_count() == 16  # one shared child
        packed.set_ot(a, None)
        assert packed._ot_plane.live_slot_count() == 16  # b keeps it alive
        packed.set_ot(b, None)
        assert packed._ot_plane.live_slot_count() == 8

    def test_default_route_resides_in_root_block(self):
        packed = PackedBackend(WIDTH, strides=(3, 3))
        packed.set_ot(Prefix.root(WIDTH), NEXTHOPS[3])
        assert packed._ot_plane.live_slot_count() == 8
        for address in range(1 << WIDTH):
            assert packed.lookup_ot(address) == NEXTHOPS[3]
        packed.set_ot(Prefix.root(WIDTH), None)
        for address in range(1 << WIDTH):
            assert packed.lookup_ot(address) is DROP


class TestStats:
    def test_packed_stats_and_bytes(self):
        packed = PackedBackend(32)
        packed.set_ot(Prefix.from_string("10.0.0.0/8"), NEXTHOPS[0])
        packed.set_ot(Prefix.from_string("10.1.0.0/24"), NEXTHOPS[1])
        packed.set_at(Prefix.from_string("10.0.0.0/8"), NEXTHOPS[0])
        stats = packed.packed_stats()
        assert stats["ot_entries"] == 2
        assert stats["at_entries"] == 1
        assert stats["ot_bytes"] == packed._ot_plane.packed_bytes()
        assert packed.packed_bytes() == stats["ot_bytes"] + stats["at_bytes"]
        # The /24 needs a level-1 block: 2**16 root + 2**8 child slots.
        assert stats["ot_live_slots"] == 2**16 + 2**8

    def test_explicit_drop_entries_survive_the_planes(self):
        """DROP as a *label* (key -1) must stay distinguishable from the
        no-route miss answer through the packed arrays."""
        packed = PackedBackend(WIDTH)
        reference = FibTrie(WIDTH)
        cover = to_prefix(2, 0b10)
        hole = to_prefix(4, 0b1011)
        for trie in (packed, reference):
            trie.set_at(cover, NEXTHOPS[2])
            trie.set_at(hole, DROP)
        for address in range(1 << WIDTH):
            assert packed.lookup_at(address) == reference.lookup_at(address)
        assert packed.lookup_at(0b101100) is DROP
        assert packed.lookup_at(0b100000) == NEXTHOPS[2]
