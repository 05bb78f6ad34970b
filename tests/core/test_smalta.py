"""Unit tests for the SMALTA update algorithms on the paper's own examples."""

from __future__ import annotations

import pytest

from repro.core.downloads import FibDownload
from repro.core.equivalence import semantically_equivalent
from repro.core.smalta import SmaltaState
from repro.net.nexthop import DROP, Nexthop
from repro.net.prefix import Prefix

from tests.conftest import make_nexthops

NH = make_nexthops(5)
A, B, Q = NH[0], NH[1], NH[2]


def figure_2_state() -> SmaltaState:
    """The OT/AT pair of Figure 2, built via load + snapshot."""
    state = SmaltaState(32)
    state.load(Prefix.from_string("128.16.0.0/15"), B)
    state.load(Prefix.from_string("128.18.0.0/15"), A)
    state.load(Prefix.from_string("128.16.0.0/16"), A)
    state.snapshot()
    return state


class TestPaperFigures:
    def test_figure_2_snapshot(self):
        state = figure_2_state()
        assert state.at_table() == {
            Prefix.from_string("128.16.0.0/14"): A,
            Prefix.from_string("128.17.0.0/16"): B,
        }

    def test_figure_3_4_insert(self):
        """The update of Figures 3/4: naive incorporation would corrupt the
        AT; SMALTA's Insert restores semantic equivalence (Step 0-3)."""
        state = figure_2_state()
        # The indicated node in Figure 3 is 128.18.0.0/16 (the left child
        # of the /15 with nexthop A), updated to nexthop Q.
        target = Prefix.from_string("128.18.0.0/16")
        state.insert(target, Q)
        state.verify()
        assert semantically_equivalent(state.ot_table(), state.at_table())
        at = state.at_table()
        # Figure 4 Step-3 result: /14->A, 128.17/16->B, 128.18/16->Q.
        assert at[Prefix.from_string("128.18.0.0/16")] == Q
        assert at[Prefix.from_string("128.17.0.0/16")] == B
        assert at[Prefix.from_string("128.16.0.0/14")] == A
        assert len(at) == 3

    def test_figure_3_4_insert_then_delete_restores(self):
        state = figure_2_state()
        target = Prefix.from_string("128.18.0.0/16")
        state.insert(target, Q)
        state.delete(target)
        state.verify()
        # Semantics must be back to the Figure 2 original.
        assert semantically_equivalent(
            state.at_table(),
            {
                Prefix.from_string("128.16.0.0/14"): A,
                Prefix.from_string("128.17.0.0/16"): B,
            },
        )


class TestInsert:
    def test_insert_into_empty(self):
        state = SmaltaState(8)
        downloads = state.insert(Prefix.from_bits("1", width=8), A)
        assert state.at_table() == {Prefix.from_bits("1", width=8): A}
        assert len(downloads) == 1

    def test_duplicate_announce_is_noop(self):
        state = SmaltaState(8)
        state.insert(Prefix.from_bits("1", width=8), A)
        downloads = state.insert(Prefix.from_bits("1", width=8), A)
        assert downloads == []

    def test_nexthop_change(self):
        state = SmaltaState(8)
        prefix = Prefix.from_bits("10", width=8)
        state.insert(prefix, A)
        state.insert(prefix, B)
        state.verify()
        assert state.at_table()[prefix] == B

    def test_insert_matching_ancestor_adds_nothing(self):
        """A specific with the same nexthop as its AT cover needs no entry."""
        state = SmaltaState(8)
        state.insert(Prefix.from_bits("1", width=8), A)
        downloads = state.insert(Prefix.from_bits("11", width=8), A)
        assert downloads == []
        assert state.at_size == 1
        state.verify()

    def test_insert_rejects_drop(self):
        state = SmaltaState(8)
        with pytest.raises(ValueError):
            state.insert(Prefix.from_bits("1", width=8), DROP)

    def test_insert_over_explicit_drop_puncture(self):
        """Covering previously-unrouted space removes its DROP punctures."""
        state = SmaltaState(4)
        # Three same-nexthop /2s -> optimal AT is root->A + 01->DROP.
        for bits in ("00", "10", "11"):
            state.load(Prefix.from_bits(bits, width=4), A)
        state.snapshot()
        assert DROP in state.at_table().values()
        state.insert(Prefix.from_bits("01", width=4), A)
        state.verify()
        # The hole is gone; a snapshot now collapses everything to one entry.
        state.snapshot()
        assert state.at_table() == {Prefix.root(4): A}


class TestDelete:
    def test_delete_missing_raises(self):
        state = SmaltaState(8)
        with pytest.raises(KeyError):
            state.delete(Prefix.from_bits("1", width=8))

    def test_delete_only_entry(self):
        state = SmaltaState(8)
        prefix = Prefix.from_bits("101", width=8)
        state.insert(prefix, A)
        downloads = state.delete(prefix)
        assert state.at_size == 0 and state.ot_size == 0
        assert len(downloads) == 1

    def test_delete_specific_reverts_to_cover(self):
        state = SmaltaState(8)
        cover = Prefix.from_bits("1", width=8)
        specific = Prefix.from_bits("11", width=8)
        state.insert(cover, A)
        state.insert(specific, B)
        state.delete(specific)
        state.verify()
        assert state.trie.lookup_at(0b11000000) == A

    def test_delete_cover_keeps_specific(self):
        state = SmaltaState(8)
        cover = Prefix.from_bits("1", width=8)
        specific = Prefix.from_bits("11", width=8)
        state.insert(cover, A)
        state.insert(specific, B)
        state.delete(cover)
        state.verify()
        assert state.trie.lookup_at(0b11000000) == B
        assert state.trie.lookup_at(0b10000000) == DROP

    def test_delete_aggregated_sibling_splits_aggregate(self):
        """Deleting one of two aggregated siblings must re-expose the other."""
        state = SmaltaState(8)
        left = Prefix.from_bits("10", width=8)
        right = Prefix.from_bits("11", width=8)
        state.load(left, A)
        state.load(right, A)
        state.snapshot()
        assert state.at_table() == {Prefix.from_bits("1", width=8): A}
        state.delete(right)
        state.verify()
        assert state.trie.lookup_at(0b10000000) == A
        assert state.trie.lookup_at(0b11000000) == DROP


class TestDownloads:
    def test_coalesced_per_prefix(self):
        state = SmaltaState(8)
        downloads = state.insert(Prefix.from_bits("1", width=8), A)
        prefixes = [d.prefix for d in downloads]
        assert len(prefixes) == len(set(prefixes))

    def test_snapshot_counts_changes_as_delete_plus_insert(self):
        state = SmaltaState(8)
        prefix = Prefix.from_bits("1", width=8)
        state.load(prefix, A)
        state.snapshot()
        # Mutate the OT behind the AT's back, then snapshot again: the
        # nexthop change must appear as Delete + Insert (Section 2).
        state.trie.set_ot(prefix, B)
        downloads = state.snapshot()
        kinds = sorted(d.kind.value for d in downloads)
        assert kinds == ["delete", "insert"]

    def test_load_produces_no_downloads(self):
        state = SmaltaState(8)
        state.load(Prefix.from_bits("1", width=8), A)
        assert state.at_size == 0



class TestWidthChecks:
    """A prefix of another width is refused before the first trie write."""

    @pytest.mark.parametrize("width", [6, 64])
    def test_every_entry_point_refuses_another_width(self, width):
        state = figure_2_state()
        before = (state.ot_table(), state.at_table())
        stray = Prefix.from_bits("1" * 5, width)
        valid = Prefix.from_string("10.0.0.0/8")
        for call in (
            lambda: state.insert(stray, B),
            lambda: state.delete(stray),
            lambda: state.load(stray, B),
            lambda: state.apply_batch([(valid, B), (stray, B)]),
        ):
            with pytest.raises(ValueError, match="bits wide"):
                call()
        assert (state.ot_table(), state.at_table()) == before
        # nothing was left pending for the next drain either
        assert state.insert(valid, A) == [FibDownload.insert(valid, A)]
