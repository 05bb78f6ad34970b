"""Tests for the dual-labeled FibTrie."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.trie import FibTrie
from repro.net.nexthop import DROP, Nexthop
from repro.net.prefix import Prefix

from tests.conftest import lookup_oracle, make_nexthops, prefixes, tables

NH = make_nexthops(4)

#: Every width-6 prefix, the root and the host routes included.
ALL_PREFIXES = [
    Prefix(value << (6 - length), length, 6)
    for length in range(7)
    for value in range(1 << length)
]


def bp(bits: str, width: int = 6) -> Prefix:
    return Prefix.from_bits(bits, width=width)


class TestLabels:
    def test_set_get_ot(self):
        trie = FibTrie(6)
        assert trie.set_ot(bp("101"), NH[0]) is None
        assert trie.get_ot(bp("101")) == NH[0]
        assert trie.ot_size == 1

    def test_ot_overwrite_returns_old(self):
        trie = FibTrie(6)
        trie.set_ot(bp("101"), NH[0])
        assert trie.set_ot(bp("101"), NH[1]) == NH[0]
        assert trie.ot_size == 1

    def test_ot_delete_prunes(self):
        trie = FibTrie(6)
        trie.set_ot(bp("10110"), NH[0])
        assert trie.node_count() == 6
        trie.set_ot(bp("10110"), None)
        assert trie.node_count() == 1  # only the root remains

    def test_at_independent_of_ot(self):
        trie = FibTrie(6)
        trie.set_ot(bp("1"), NH[0])
        trie.set_at(bp("1"), NH[1])
        assert trie.get_ot(bp("1")) == NH[0]
        assert trie.get_at(bp("1")) == NH[1]
        trie.set_at(bp("1"), None)
        assert trie.get_ot(bp("1")) == NH[0]
        assert trie.at_size == 0 and trie.ot_size == 1

    def test_at_observer_sees_changes(self):
        trie = FibTrie(6)
        events = []
        trie.at_observer = lambda p, old, new: events.append((p, old, new))
        trie.set_at(bp("01"), NH[2])
        trie.set_at(bp("01"), NH[2])  # no-op, no event
        trie.set_at(bp("01"), None)
        assert events == [(bp("01"), None, NH[2]), (bp("01"), NH[2], None)]


class TestPsiAndPresent:
    def test_psi_functions(self):
        trie = FibTrie(6)
        trie.set_ot(bp("1"), NH[0])
        trie.set_ot(bp("101"), NH[1])
        trie.set_at(bp("10"), NH[2])
        target = bp("10110")
        assert trie.psi_o(target).prefix == bp("101")
        assert trie.psi_eq_o(bp("101")).prefix == bp("101")
        assert trie.psi_o(bp("101")).prefix == bp("1")
        assert trie.psi_a(target).prefix == bp("10")

    def test_psi_none_when_no_label(self):
        trie = FibTrie(6)
        assert trie.psi_o(bp("111")) is None
        assert trie.psi_a(bp("111")) is None

    def test_present_at(self):
        trie = FibTrie(6)
        assert trie.present_at(bp("111")) == DROP
        trie.set_at(bp("1"), NH[0])
        assert trie.present_at(bp("111")) == NH[0]
        trie.set_at(bp("11"), NH[1])
        assert trie.present_at(bp("111")) == NH[1]
        assert trie.present_at(bp("11")) == NH[1]  # own label counts


class TestPreimages:
    def test_reverse_index(self):
        trie = FibTrie(6)
        ot = trie.ensure(bp("1"))
        ot.d_o = NH[0]
        deagg = trie.ensure(bp("11"))
        deagg.d_a = NH[0]
        trie.set_pi(deagg, ot)
        assert trie.deaggregates_of(ot) == [deagg]
        trie.set_pi(deagg, None)
        assert trie.deaggregates_of(ot) == []

    def test_clearing_at_label_clears_pi(self):
        trie = FibTrie(6)
        ot = trie.ensure(bp("1"))
        ot.d_o = NH[0]
        trie.set_at(bp("11"), NH[0])
        deagg = trie.find(bp("11"))
        trie.set_pi(deagg, ot)
        trie.set_at_node(deagg, None)
        assert deagg.pi is None
        assert trie.deaggregates_of(ot) == []

    def test_nil_node_registry(self):
        trie = FibTrie(6)
        drop_entry = trie.ensure(bp("01"))
        drop_entry.d_a = DROP
        trie.set_pi(drop_entry, trie.nil_node)
        assert trie.deaggregates_of(trie.nil_node) == [drop_entry]


class TestDeaggregatesUnder:
    @given(
        on_nil=st.booleans(),
        holder_prefix=prefixes(6),
        members=st.lists(prefixes(6), max_size=24, unique=True),
        removed=st.sets(st.integers(0, 23), max_size=12),
    )
    def test_range_query_matches_filter(
        self, on_nil, holder_prefix, members, removed
    ):
        trie = FibTrie(6)
        if on_nil:
            holder = trie.nil_node
        else:
            trie.set_ot(holder_prefix, NH[0])
            holder = trie.find(holder_prefix)
            members = [
                member
                for member in members
                if holder_prefix.contains(member) and member != holder_prefix
            ]
        nodes = []
        for member in members:
            trie.set_at(member, NH[1])
            node = trie.find(member)
            trie.set_pi(node, holder)
            nodes.append(node)
        for index in sorted(removed):
            if index < len(nodes):
                trie.set_pi(nodes[index], None)
        live = [n for i, n in enumerate(nodes) if i not in removed]
        index_order = trie.deaggregates_of(holder)
        assert index_order == sorted(
            live, key=lambda n: (n.prefix.value, n.prefix.length)
        )
        for query in ALL_PREFIXES:
            reference = [d for d in index_order if query.contains(d.prefix)]
            assert trie.deaggregates_under(holder, query) == reference

    def test_removing_an_unlisted_deaggregate_raises(self):
        trie = FibTrie(6)
        ot = trie.ensure(bp("1"))
        ot.d_o = NH[0]
        deagg = trie.ensure(bp("11"))
        deagg.d_a = NH[0]
        trie.set_pi(deagg, ot)
        ot.deaggs = None  # the index lost the entry
        with pytest.raises(RuntimeError, match="does not list"):
            trie.set_pi(deagg, None)


class TestLookup:
    @given(table=tables(6, nexthop_count=4, max_size=16), address=st.integers(0, 63))
    def test_lookup_matches_linear_oracle(self, table, address):
        trie = FibTrie(6)
        for prefix, nexthop in table.items():
            trie.set_ot(prefix, nexthop)
            trie.set_at(prefix, nexthop)
        expected = lookup_oracle(table, address, 6)
        assert trie.lookup_ot(address) == expected
        assert trie.lookup_at(address) == expected

    @given(table=tables(6, nexthop_count=3, max_size=12))
    def test_tables_roundtrip(self, table):
        trie = FibTrie(6)
        for prefix, nexthop in table.items():
            trie.set_ot(prefix, nexthop)
        assert trie.ot_table() == table
        assert trie.ot_size == len(table)

    @given(table=tables(5, nexthop_count=3, max_size=12))
    def test_delete_all_restores_empty(self, table):
        trie = FibTrie(5)
        for prefix, nexthop in table.items():
            trie.set_ot(prefix, nexthop)
        for prefix in table:
            trie.set_ot(prefix, None)
        assert trie.ot_size == 0
        assert trie.node_count() == 1


class TestPrune:
    def test_prune_keeps_nodes_with_deaggs(self):
        trie = FibTrie(6)
        anchor = trie.ensure(bp("10"))
        dep = trie.ensure(bp("101"))
        dep.d_a = NH[0]
        trie.set_pi(dep, anchor)
        trie.prune(anchor)
        assert trie.find(bp("10")) is anchor  # still attached

    def test_double_prune_is_safe(self):
        trie = FibTrie(6)
        node = trie.ensure(bp("111"))
        trie.prune(node)
        trie.prune(node)  # node already detached; must not raise
        assert trie.find(bp("111")) is None
