"""The SMALTA invariant auditor.

SMALTA's correctness rests on bookkeeping the incremental algorithms
(Section 3, Algorithms 1-3) must keep consistent across arbitrarily many
interleaved ``insert``/``delete``/``snapshot`` calls: every deaggregate's
preimage pointer ``pi``, the reverse deaggregate index the "visit
deaggregates of P" loops walk, and the OT/AT label relationships of the
paper's Invariants 1 and 2 (Section 3.3). This module audits all of it
in one pass over the union trie, reporting structured
:class:`Violation` records (offending prefix + invariant code) rather
than bare asserts, so a self-checking deployment can log and keep
forwarding while a test fails loudly.

Two entry points:

- :func:`audit_trie` — the structural checks, given only a
  :class:`~repro.core.trie.FibTrie`;
- :func:`audit_state` — the above plus the semantic checks on a
  :class:`~repro.core.smalta.SmaltaState`: AT ≡ OT (the TaCo check the
  paper cites) and, optionally, OT == a caller-supplied reference table
  and, right after a snapshot, label minimality and AT == ``ortc(OT)``.

The full catalogue, with paper-section references, is documented in
``docs/VERIFICATION.md``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Mapping, Optional

from repro.core.equivalence import equivalence_counterexample
from repro.core.ortc import ortc
from repro.core.trie import FibTrie, Node
from repro.net.nexthop import DROP, Nexthop
from repro.net.prefix import Prefix

if TYPE_CHECKING:
    from repro.core.smalta import SmaltaState


class InvariantCode(enum.Enum):
    """Stable identifiers for the invariant classes the auditor checks."""

    #: Parent/child links or per-node prefixes are inconsistent, or an
    #: empty node survived pruning.
    STRUCTURE = "structure"
    #: The cached #(OT)/#(AT) counters disagree with the actual labels.
    COUNT_DRIFT = "count-drift"
    #: A ``pi`` pointer targets a node no longer present in the trie.
    PI_DANGLING = "pi-dangling"
    #: A node carries a ``pi`` pointer but no AT label (a node outside
    #: the AT cannot be a deaggregate of anything).
    PI_UNLABELED = "pi-unlabeled"
    #: A (non-nil) preimage is not itself an Original Tree entry.
    PI_PREIMAGE_NOT_OT = "pi-preimage-not-ot"
    #: A deaggregate's AT label differs from its preimage's OT nexthop
    #: (or from DROP, for deaggregates of the unrouted context).
    PI_LABEL_MISMATCH = "pi-label-mismatch"
    #: An explicit null-route entry sits under a covering OT entry.
    DROP_UNDER_OT = "drop-under-ot"
    #: Paper Invariant 1: an OT label sits strictly between a
    #: deaggregate and its preimage.
    OT_SHADOWED = "ot-shadowed"
    #: A reverse-index entry points at a node whose ``pi`` does not
    #: point back (stale entry in ``deaggs``).
    REVERSE_INDEX_STALE = "reverse-index-stale"
    #: A ``pi`` pointer has no matching reverse-index entry.
    REVERSE_INDEX_MISSING = "reverse-index-missing"
    #: A holder's reverse-index entries do not strictly increase by
    #: (value, length), or an entry's key is not its member's prefix:
    #: the range query of Algorithm 1 would miss deaggregates.
    REVERSE_INDEX_ORDER = "reverse-index-order"
    #: Paper Invariant 2 (operational form): an OT entry with no AT
    #: label is neither served by AT propagation nor fully re-covered
    #: by deaggregates.
    AT_UNCOVERED = "at-uncovered"
    #: Post-snapshot only: an AT label equals the value its nearest
    #: labeled AT ancestor already propagates (ORTC never emits these).
    AT_REDUNDANT = "at-redundant"
    #: Post-snapshot only: an AT entry differs from the entry-stream
    #: ``ortc()`` of the OT (a region the incremental snapshot missed).
    AT_NOT_ORTC = "at-not-ortc"
    #: The Original Tree differs from the caller's reference table.
    OT_MISMATCH = "ot-mismatch"
    #: The Aggregated Tree is not semantically equivalent to the OT
    #: (the TaCo check).
    SEMANTIC_DIVERGENCE = "semantic-divergence"


@dataclass(frozen=True)
class Violation:
    """One detected invariant breach.

    ``prefix`` names the offending trie position when one exists (None
    for table-level findings such as counter drift).
    """

    code: InvariantCode
    prefix: Optional[Prefix]
    message: str

    def __str__(self) -> str:
        where = f" at {self.prefix}" if self.prefix is not None else ""
        return f"[{self.code.value}]{where}: {self.message}"


def _iter_with_nil(trie: FibTrie) -> Iterator[Node]:
    yield from trie.iter_nodes()
    yield trie.nil_node


def _check_structure(trie: FibTrie, out: list[Violation]) -> None:
    """Parent/child links, per-node prefixes, eager pruning, counters."""
    ot_count = 0
    at_count = 0
    for node in trie.iter_nodes():
        if node.d_o is not None:
            ot_count += 1
        if node.d_a is not None:
            at_count += 1
        if node is not trie.root and node.is_empty:
            out.append(
                Violation(
                    InvariantCode.STRUCTURE,
                    node.prefix,
                    "empty node survived pruning",
                )
            )
        for bit in (0, 1):
            child = node.right if bit else node.left
            if child is None:
                continue
            if child.parent is not node:
                out.append(
                    Violation(
                        InvariantCode.STRUCTURE,
                        child.prefix,
                        f"parent link does not point at {node.prefix}",
                    )
                )
            if child.prefix != node.prefix.child(bit):
                out.append(
                    Violation(
                        InvariantCode.STRUCTURE,
                        child.prefix,
                        f"child prefix inconsistent under {node.prefix}",
                    )
                )
    if ot_count != trie.ot_size:
        out.append(
            Violation(
                InvariantCode.COUNT_DRIFT,
                None,
                f"cached #(OT)={trie.ot_size} but {ot_count} labels found",
            )
        )
    if at_count != trie.at_size:
        out.append(
            Violation(
                InvariantCode.COUNT_DRIFT,
                None,
                f"cached #(AT)={trie.at_size} but {at_count} labels found",
            )
        )


def _check_preimages(trie: FibTrie, out: list[Violation]) -> None:
    """The ``pi`` pointer discipline and paper Invariant 1."""
    nil_node = trie.nil_node
    live = {id(node) for node in trie.iter_nodes()}
    for node in trie.iter_nodes():
        preimage = node.pi
        if preimage is None:
            continue
        if preimage is not nil_node and id(preimage) not in live:
            out.append(
                Violation(
                    InvariantCode.PI_DANGLING,
                    node.prefix,
                    f"pi targets pruned node {preimage.prefix}",
                )
            )
            continue
        if node.d_a is None:
            out.append(
                Violation(
                    InvariantCode.PI_UNLABELED,
                    node.prefix,
                    "pi set on a node with no AT label",
                )
            )
        if preimage is nil_node:
            if node.d_a is not None and node.d_a != DROP:
                out.append(
                    Violation(
                        InvariantCode.PI_LABEL_MISMATCH,
                        node.prefix,
                        f"deaggregate of the unrouted context labeled "
                        f"{node.d_a}, expected DROP",
                    )
                )
            walker = node.parent
            while walker is not None:
                if walker.d_o is not None:
                    out.append(
                        Violation(
                            InvariantCode.DROP_UNDER_OT,
                            node.prefix,
                            f"explicit DROP under OT entry "
                            f"{walker.prefix}->{walker.d_o}",
                        )
                    )
                    break
                walker = walker.parent
            continue
        if preimage.d_o is None:
            out.append(
                Violation(
                    InvariantCode.PI_PREIMAGE_NOT_OT,
                    node.prefix,
                    f"preimage {preimage.prefix} carries no OT label",
                )
            )
        elif node.d_a is not None and node.d_a != preimage.d_o:
            out.append(
                Violation(
                    InvariantCode.PI_LABEL_MISMATCH,
                    node.prefix,
                    f"deaggregate labeled {node.d_a} but preimage "
                    f"{preimage.prefix} routes to {preimage.d_o}",
                )
            )
        if not preimage.prefix.contains(node.prefix) or preimage is node:
            out.append(
                Violation(
                    InvariantCode.PI_DANGLING,
                    node.prefix,
                    f"preimage {preimage.prefix} is not a proper ancestor",
                )
            )
            continue
        walker = node.parent
        while walker is not None and walker is not preimage:
            if walker.d_o is not None:
                out.append(
                    Violation(
                        InvariantCode.OT_SHADOWED,
                        node.prefix,
                        f"OT entry {walker.prefix}->{walker.d_o} sits between "
                        f"deaggregate and preimage {preimage.prefix}",
                    )
                )
            walker = walker.parent
        if walker is None:
            out.append(
                Violation(
                    InvariantCode.PI_DANGLING,
                    node.prefix,
                    f"preimage {preimage.prefix} not on the ancestor path",
                )
            )


def _check_reverse_index(trie: FibTrie, out: list[Violation]) -> None:
    """``deaggs`` must be the exact inverse of the ``pi`` map, its
    entries keyed by their members' prefixes in strictly increasing
    (value, length) order."""
    live = {id(node) for node in trie.iter_nodes()}
    listed: set[tuple[int, int]] = set()
    for holder in _iter_with_nil(trie):
        if not holder.deaggs:
            continue
        holder_name = (
            "nil" if holder is trie.nil_node else str(holder.prefix)
        )
        previous: Optional[tuple[int, int]] = None
        for value, length, member in holder.deaggs:
            listed.add((id(holder), id(member)))
            key = (member.prefix.value, member.prefix.length)
            if (value, length) != key:
                out.append(
                    Violation(
                        InvariantCode.REVERSE_INDEX_ORDER,
                        member.prefix,
                        f"indexed under key {(value, length)} in the "
                        f"deaggregates of {holder_name}",
                    )
                )
            if previous is not None and key <= previous:
                out.append(
                    Violation(
                        InvariantCode.REVERSE_INDEX_ORDER,
                        member.prefix,
                        f"out of prefix order in the deaggregates of "
                        f"{holder_name}",
                    )
                )
            previous = key
            if member.pi is not holder:
                out.append(
                    Violation(
                        InvariantCode.REVERSE_INDEX_STALE,
                        member.prefix,
                        f"listed as deaggregate of {holder_name} but pi "
                        f"points elsewhere",
                    )
                )
            if id(member) not in live:
                out.append(
                    Violation(
                        InvariantCode.REVERSE_INDEX_STALE,
                        member.prefix,
                        f"deaggregate of {holder_name} is no longer in the trie",
                    )
                )
    for node in trie.iter_nodes():
        preimage = node.pi
        if preimage is None:
            continue
        if (id(preimage), id(node)) not in listed:
            out.append(
                Violation(
                    InvariantCode.REVERSE_INDEX_MISSING,
                    node.prefix,
                    f"pi points at "
                    f"{'nil' if preimage is trie.nil_node else preimage.prefix} "
                    f"but the reverse index does not list this node",
                )
            )


def _fully_covered_below(node: Node) -> bool:
    """True when every address under ``node`` meets an AT label at or
    below the first OT-or-AT node on its downward path (no gap where an
    ancestor's AT propagation would leak through)."""
    stack = [node]
    while stack:
        current = stack.pop()
        for bit in (0, 1):
            child = current.right if bit else current.left
            if child is None:
                # A gap: addresses here have `node` as their OT longest
                # match, yet inherit the mismatched AT propagation.
                return False
            if child.d_a is not None:
                continue  # structurally covered (value checked by TaCo)
            if child.d_o is not None:
                continue  # a deeper OT entry owns this space
            stack.append(child)
    return True


def _check_ot_coverage(trie: FibTrie, out: list[Violation]) -> None:
    """Paper Invariant 2, operationally: every AT-silent OT entry is
    served by propagation of its own nexthop or fully re-covered by
    deaggregates below."""
    for node in trie.iter_nodes():
        if node.d_o is None or node.d_a is not None:
            continue
        walker = node.parent
        while walker is not None and walker.d_a is None:
            walker = walker.parent
        inherited = walker.d_a if walker is not None else DROP
        if inherited == node.d_o:
            continue
        if not _fully_covered_below(node):
            out.append(
                Violation(
                    InvariantCode.AT_UNCOVERED,
                    node.prefix,
                    f"OT entry routes to {node.d_o} but inherits {inherited} "
                    "in the AT and is not re-covered by deaggregates",
                )
            )


def _check_minimality(trie: FibTrie, out: list[Violation]) -> None:
    """Post-snapshot check: no AT label repeats what already propagates.

    Only sound right after ``snapshot()`` — the incremental algorithms
    deliberately tolerate transient redundancy between snapshots (that
    tolerated drift is exactly what Figure 8 measures).
    """
    for node in trie.iter_nodes():
        if node.d_a is None:
            continue
        walker = node.parent
        while walker is not None and walker.d_a is None:
            walker = walker.parent
        inherited = walker.d_a if walker is not None else DROP
        if inherited == node.d_a:
            out.append(
                Violation(
                    InvariantCode.AT_REDUNDANT,
                    node.prefix,
                    f"AT label {node.d_a} already propagates from "
                    f"{'the root context' if walker is None else walker.prefix}",
                )
            )


def _check_ortc(trie: FibTrie, out: list[Violation]) -> None:
    """Post-snapshot check: the AT is ORTC of the OT, entry for entry.

    The snapshot redoes ORTC only on the region the trie's writers
    marked; the entry-stream :func:`~repro.core.ortc.ortc` shares no
    state with it, so a change that reached the trie unmarked shows here
    as a stale entry.
    """
    have = trie.at_table()
    want = ortc(trie.ot_entries(), trie.width)
    for prefix in sorted(have.keys() | want.keys()):
        got = have.get(prefix)
        expected = want.get(prefix)
        if got != expected:
            out.append(
                Violation(
                    InvariantCode.AT_NOT_ORTC,
                    prefix,
                    f"AT has {got}, ORTC of the OT has {expected}",
                )
            )


def audit_trie(trie: FibTrie, optimal: bool = False) -> list[Violation]:
    """Audit the structural invariants of one OT/AT union trie.

    With ``optimal=True`` (valid only immediately after a snapshot) the
    label-minimality check and the AT == ``ortc(OT)`` check are
    included. Returns all violations found; an empty list means the
    trie is healthy.
    """
    out: list[Violation] = []
    _check_structure(trie, out)
    _check_preimages(trie, out)
    _check_reverse_index(trie, out)
    _check_ot_coverage(trie, out)
    if optimal:
        _check_minimality(trie, out)
        _check_ortc(trie, out)
    return out


def audit_state(
    state: "SmaltaState",
    reference: Optional[Mapping[Prefix, Nexthop]] = None,
    optimal: bool = False,
) -> list[Violation]:
    """Full audit of a :class:`~repro.core.smalta.SmaltaState`.

    Runs :func:`audit_trie` plus the semantic checks: AT ≡ OT (TaCo) and
    OT == ``reference`` when a reference table is supplied.
    """
    trie = state.trie
    out = audit_trie(trie, optimal=optimal)
    if reference is not None:
        ot = state.ot_table()
        for prefix in sorted(set(ot) | set(reference)):
            have = ot.get(prefix)
            want = reference.get(prefix)
            if have != want:
                out.append(
                    Violation(
                        InvariantCode.OT_MISMATCH,
                        prefix,
                        f"OT has {have}, reference has {want}",
                    )
                )
    counterexample = equivalence_counterexample(
        state.ot_table(), state.at_table(), trie.width
    )
    if counterexample is not None:
        region, ot_nexthop, at_nexthop = counterexample
        out.append(
            Violation(
                InvariantCode.SEMANTIC_DIVERGENCE,
                region,
                f"addresses resolve to {ot_nexthop} in the OT but "
                f"{at_nexthop} in the AT",
            )
        )
    return out
