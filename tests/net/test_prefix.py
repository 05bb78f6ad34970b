"""Unit and property tests for the Prefix value type."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.prefix import IPV4_WIDTH, Prefix

from tests.conftest import prefixes


class TestConstruction:
    def test_from_string_roundtrip(self):
        p = Prefix.from_string("128.16.0.0/15")
        assert str(p) == "128.16.0.0/15"
        assert p.length == 15
        assert p.value == (128 << 24) | (16 << 16)

    def test_from_bits(self):
        p = Prefix.from_bits("101", width=6)
        assert p.length == 3
        assert p.value == 0b101000
        assert p.bits() == "101"

    def test_root(self):
        root = Prefix.root(8)
        assert root.length == 0
        assert root.bits() == ""
        assert root.address_count() == 256

    def test_rejects_host_bits(self):
        with pytest.raises(ValueError):
            Prefix(0b1, 1, 8)  # bit set below the prefix length

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            Prefix(0, 33, 32)
        with pytest.raises(ValueError):
            Prefix(0, -1, 32)

    def test_rejects_bad_string(self):
        for bad in ("10.0.0.0", "1.2.3/8", "256.0.0.0/8", "1.2.3.4.5/8"):
            with pytest.raises(ValueError):
                Prefix.from_string(bad)

    def test_immutable(self):
        p = Prefix.from_string("10.0.0.0/8")
        with pytest.raises(AttributeError):
            p.length = 9


class TestStructure:
    def test_children_partition_parent(self):
        p = Prefix.from_bits("10", width=6)
        left, right = p.child(0), p.child(1)
        assert left.parent() == p and right.parent() == p
        assert left.sibling() == right
        lo, hi = p.address_range()
        l_lo, l_hi = left.address_range()
        r_lo, r_hi = right.address_range()
        assert (l_lo, r_hi) == (lo, hi) and l_hi == r_lo

    def test_bit_indexing(self):
        p = Prefix.from_bits("1010", width=8)
        assert [p.bit(i) for i in range(4)] == [1, 0, 1, 0]
        with pytest.raises(IndexError):
            p.bit(4)

    def test_contains(self):
        a = Prefix.from_string("128.16.0.0/14")
        b = Prefix.from_string("128.17.0.0/16")
        c = Prefix.from_string("128.20.0.0/16")
        assert a.contains(b) and a.contains(a)
        assert not a.contains(c) and not b.contains(a)

    def test_contains_address(self):
        p = Prefix.from_string("10.0.0.0/8")
        assert p.contains_address(10 << 24)
        assert p.contains_address((10 << 24) + 12345)
        assert not p.contains_address(11 << 24)

    def test_root_has_no_parent_or_sibling(self):
        root = Prefix.root(4)
        with pytest.raises(ValueError):
            root.parent()
        with pytest.raises(ValueError):
            root.sibling()

    def test_full_length_has_no_child(self):
        host = Prefix.of_address(3, width=4)
        with pytest.raises(ValueError):
            host.child(0)

    def test_iter_addresses(self):
        p = Prefix.from_bits("11", width=4)
        assert list(p.iter_addresses()) == [12, 13, 14, 15]


class TestOrderingAndHashing:
    def test_equality_includes_width(self):
        assert Prefix(0, 0, 4) != Prefix(0, 0, 5)

    def test_usable_as_dict_key(self):
        d = {Prefix.from_string("10.0.0.0/8"): 1}
        assert d[Prefix.from_string("10.0.0.0/8")] == 1

    @given(a=prefixes(8), b=prefixes(8))
    def test_total_order_consistent_with_eq(self, a, b):
        assert (a == b) == (not a < b and not b < a)

    @given(p=prefixes(8, min_length=1))
    def test_parent_child_roundtrip(self, p):
        last_bit = p.bit(p.length - 1)
        assert p.parent().child(last_bit) == p

    @given(p=prefixes(8))
    def test_bits_roundtrip(self, p):
        assert Prefix.from_bits(p.bits(), width=8) == p

    @given(p=prefixes(8, min_length=1), address=st.integers(0, 255))
    def test_contains_address_matches_range(self, p, address):
        lo, hi = p.address_range()
        assert p.contains_address(address) == (lo <= address < hi)


def test_ipv4_width_default():
    assert Prefix.from_string("0.0.0.0/0").width == IPV4_WIDTH


@settings(max_examples=200, deadline=None)
@given(prefixes(8))
def test_prefix_pickle_round_trip(prefix):
    clone = pickle.loads(pickle.dumps(prefix))
    assert clone == prefix and hash(clone) == hash(prefix)


def test_prefix_pickle_round_trip_ipv4():
    prefix = Prefix.from_string("203.0.113.0/24")
    assert pickle.loads(pickle.dumps(prefix)) == prefix
