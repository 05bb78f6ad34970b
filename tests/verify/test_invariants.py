"""Corruption-injection tests for the invariant auditor.

Each test takes a healthy SmaltaState, breaks exactly one piece of
bookkeeping by poking the trie directly (bypassing the core API), and
asserts the auditor reports the corresponding InvariantCode — proving
the auditor actually catches each invariant class, not merely that
healthy states pass.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.smalta import SmaltaState
from repro.core.trie import Node
from repro.net.nexthop import DROP
from repro.net.prefix import Prefix
from repro.verify import InvariantCode, audit_state, audit_trie

from tests.conftest import make_nexthops, nexthops, prefixes

WIDTH = 8
A, B, C, D = make_nexthops(4)


def p(bits: str) -> Prefix:
    if not bits:
        return Prefix.root(WIDTH)
    return Prefix(int(bits, 2) << (WIDTH - len(bits)), len(bits), WIDTH)


def healthy_state() -> SmaltaState:
    state = SmaltaState(WIDTH)
    for bits, nexthop in [("0", A), ("01", B), ("10", A), ("11", B)]:
        state.load(p(bits), nexthop)
    state.snapshot()
    return state


def codes_of(violations) -> set[InvariantCode]:
    return {violation.code for violation in violations}


# -- healthy states are clean ------------------------------------------------


def test_healthy_state_audits_clean():
    state = healthy_state()
    assert audit_state(state) == []
    assert audit_trie(state.trie, optimal=True) == []


def test_healthy_after_incremental_churn():
    state = healthy_state()
    state.insert(p("010"), C)
    state.insert(p("001"), D)
    state.delete(p("01"))
    state.insert(p("01"), A)
    assert audit_state(state) == []


# -- one injected corruption, one detected code ------------------------------


def test_dangling_pi_detected():
    state = healthy_state()
    trie = state.trie
    node = next(n for n in trie.iter_nodes() if n.d_a is not None)
    node.pi = Node(p("0"), None)  # a node that is not in the trie
    assert InvariantCode.PI_DANGLING in codes_of(audit_trie(trie))


def test_pi_not_an_ancestor_detected():
    state = healthy_state()
    trie = state.trie
    node = next(n for n in trie.iter_nodes() if n.d_a is not None)
    node.pi = node  # a node is never its own preimage
    assert InvariantCode.PI_DANGLING in codes_of(audit_trie(trie))


def test_stale_reverse_index_detected():
    state = healthy_state()
    trie = state.trie
    holder = next(n for n in trie.iter_nodes() if n.d_o is not None)
    member = next(n for n in trie.iter_nodes() if n is not holder)
    # member.pi does not point back
    holder.deaggs = [(member.prefix.value, member.prefix.length, member)]
    assert InvariantCode.REVERSE_INDEX_STALE in codes_of(audit_trie(trie))


def deaggregated_state() -> SmaltaState:
    """0 -> A re-covered by the deaggregates 001 and 011 under B's root."""
    state = SmaltaState(WIDTH)
    for bits, nexthop in [("", B), ("0", A), ("000", B), ("010", B)]:
        state.load(p(bits), nexthop)
    state.snapshot()
    holder = state.trie.find(p("0"))
    assert holder is not None
    assert state.trie.deaggregates_of(holder) == [
        state.trie.find(p("001")),
        state.trie.find(p("011")),
    ]
    assert audit_trie(state.trie) == []
    return state


def test_reverse_index_out_of_order_detected():
    trie = deaggregated_state().trie
    holder = trie.find(p("0"))
    holder.deaggs.reverse()
    violations = audit_trie(trie)
    assert codes_of(violations) == {InvariantCode.REVERSE_INDEX_ORDER}


def test_reverse_index_key_mismatch_detected():
    trie = deaggregated_state().trie
    holder = trie.find(p("0"))
    value, length, member = holder.deaggs[0]
    holder.deaggs[0] = (value, length + 1, member)  # keyed under another prefix
    violations = audit_trie(trie)
    assert codes_of(violations) == {InvariantCode.REVERSE_INDEX_ORDER}


def test_missing_reverse_index_detected():
    state = healthy_state()
    trie = state.trie
    preimage = trie.find(p("0"))
    assert preimage is not None and preimage.d_o == A
    trie.set_at(p("001"), A)
    deagg = trie.find(p("001"))
    deagg.pi = preimage  # raw write: set_pi would maintain the index
    violations = audit_trie(trie)
    assert InvariantCode.REVERSE_INDEX_MISSING in codes_of(violations)
    assert InvariantCode.REVERSE_INDEX_STALE not in codes_of(violations)


def test_pi_unlabeled_detected():
    state = healthy_state()
    trie = state.trie
    preimage = trie.find(p("0"))
    bare = trie.ensure(p("0011"))
    trie.set_pi(bare, preimage)  # pi on a node with no AT label
    assert InvariantCode.PI_UNLABELED in codes_of(audit_trie(trie))


def test_preimage_without_ot_label_detected():
    state = healthy_state()
    trie = state.trie
    trie.set_at(p("001"), A)
    deagg = trie.find(p("001"))
    bogus = trie.ensure(p("00"))  # no OT label; kept alive by the index
    trie.set_pi(deagg, bogus)
    assert InvariantCode.PI_PREIMAGE_NOT_OT in codes_of(audit_trie(trie))


def test_label_mismatch_detected():
    state = healthy_state()
    trie = state.trie
    preimage = trie.find(p("0"))  # routes to A
    trie.set_at(p("001"), C)  # deaggregate labeled C != A
    trie.set_pi(trie.find(p("001")), preimage)
    assert InvariantCode.PI_LABEL_MISMATCH in codes_of(audit_trie(trie))


def test_nil_deaggregate_must_be_drop():
    state = SmaltaState(WIDTH)
    trie = state.trie
    trie.set_at(p("00"), B)  # deaggregate of the unrouted context, not DROP
    trie.set_pi(trie.find(p("00")), trie.nil_node)
    assert InvariantCode.PI_LABEL_MISMATCH in codes_of(audit_trie(trie))


def test_drop_under_ot_detected():
    state = SmaltaState(WIDTH)
    trie = state.trie
    trie.set_ot(p("0"), A)
    trie.set_at(p("00"), DROP)
    trie.set_pi(trie.find(p("00")), trie.nil_node)
    assert InvariantCode.DROP_UNDER_OT in codes_of(audit_trie(trie))


def test_ot_shadowed_detected():
    """Paper Invariant 1: no OT label between deaggregate and preimage."""
    state = SmaltaState(WIDTH)
    trie = state.trie
    trie.set_ot(p("0"), A)
    trie.set_ot(p("00"), B)  # sits between the deaggregate and preimage
    trie.set_at(p("000"), A)
    trie.set_pi(trie.find(p("000")), trie.find(p("0")))
    assert InvariantCode.OT_SHADOWED in codes_of(audit_trie(trie))


def test_at_uncovered_detected():
    """Paper Invariant 2: an AT-silent OT entry must be served."""
    state = SmaltaState(WIDTH)
    trie = state.trie
    trie.set_ot(p("0"), A)
    trie.set_at(Prefix.root(WIDTH), B)  # propagates B over the A entry
    assert InvariantCode.AT_UNCOVERED in codes_of(audit_trie(trie))


def test_redundant_at_label_post_snapshot_only():
    state = healthy_state()
    trie = state.trie
    for node in trie.iter_nodes():
        if node.d_a is None or node.prefix.length >= WIDTH:
            continue
        child = trie.ensure(node.prefix.child(0))
        if child.d_a is None:
            trie.set_at_node(child, node.d_a)  # repeats what propagates
            break
    else:
        raise AssertionError("no AT node with a free child slot")
    assert InvariantCode.AT_REDUNDANT in codes_of(
        audit_trie(trie, optimal=True)
    )
    # Between snapshots redundancy is legal drift — not flagged.
    assert InvariantCode.AT_REDUNDANT not in codes_of(audit_trie(trie))


def test_stale_region_detected_after_snapshot():
    """A label written around the trie's writers leaves no mark, so the
    next snapshot does not redo its region; the post-snapshot audit
    compares the AT with the scratch ORTC and catches it."""
    state = healthy_state()
    trie = state.trie
    node = next(
        n for n in trie.iter_nodes() if n.d_a is not None and n.d_a != C
    )
    node.d_a = C  # raw write: set_at_node would mark the node
    assert state.snapshot() == []  # nothing marked, nothing redone
    violations = audit_trie(trie, optimal=True)
    assert InvariantCode.AT_NOT_ORTC in codes_of(violations)
    assert node.prefix in {
        v.prefix for v in violations if v.code is InvariantCode.AT_NOT_ORTC
    }
    # Only the post-snapshot audit compares against ORTC.
    assert InvariantCode.AT_NOT_ORTC not in codes_of(audit_trie(trie))


def test_semantic_divergence_detected():
    state = healthy_state()
    state.trie.set_at(p("00000000"), C)  # OT routes this address to A
    violations = audit_state(state)
    assert InvariantCode.SEMANTIC_DIVERGENCE in codes_of(violations)


def test_count_drift_detected():
    state = healthy_state()
    state.trie._ot_count += 1
    assert InvariantCode.COUNT_DRIFT in codes_of(audit_trie(state.trie))


def test_unpruned_empty_node_detected():
    state = healthy_state()
    state.trie.ensure(p("00110011"))  # leaf carries nothing
    assert InvariantCode.STRUCTURE in codes_of(audit_trie(state.trie))


def test_ot_mismatch_against_reference():
    state = healthy_state()
    reference = state.ot_table()
    reference[p("01")] = C  # reference disagrees on one entry
    missing = p("110011")
    reference[missing] = D  # and has one the OT lacks
    violations = audit_state(state, reference=reference)
    mismatches = [
        v for v in violations if v.code is InvariantCode.OT_MISMATCH
    ]
    assert {v.prefix for v in mismatches} == {p("01"), missing}


def test_violation_str_mentions_code_and_prefix():
    state = healthy_state()
    state.trie.set_at(p("00000000"), C)
    violation = next(
        v
        for v in audit_state(state)
        if v.code is InvariantCode.SEMANTIC_DIVERGENCE
    )
    assert "semantic-divergence" in str(violation)
    assert str(violation.prefix) in str(violation)


# -- property: no violations over arbitrary legal interleavings --------------

SMALL_WIDTH = 6
operations = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "snapshot"]),
        prefixes(SMALL_WIDTH, min_length=1),
        nexthops(3),
    ),
    max_size=30,
)


@settings(max_examples=60, deadline=None)
@given(ops=operations)
def test_no_violations_over_random_interleavings(ops):
    """The incremental algorithms never corrupt the bookkeeping: every
    reachable state audits clean, and post-snapshot states are minimal."""
    state = SmaltaState(SMALL_WIDTH)
    for kind, prefix, nexthop in ops:
        if kind == "insert":
            state.insert(prefix, nexthop)
        elif kind == "delete":
            try:
                state.delete(prefix)
            except KeyError:
                pass
        else:
            state.snapshot()
            assert audit_trie(state.trie, optimal=True) == []
        assert audit_state(state) == []
