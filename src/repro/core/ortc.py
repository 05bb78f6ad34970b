"""ORTC — Optimal Routing Table Constructor (Draves, King, Venkatachary, Zill).

SMALTA's ``snapshot(OT)`` is ORTC (Section 2.1 of the paper). The three
passes over the binary tree:

1. **Normalization** — expand so every node has two or no children, with
   each (possibly phantom) leaf owed the nexthop its address space
   resolves to. We do not materialize phantom leaves; the *effective*
   inherited nexthop stored per node lets pass 3 emit entries for missing
   children directly.
2. **Bottom-up** — each node receives a set of candidate nexthops:
   ``merge(A, B) = A ∩ B if A ∩ B ≠ ∅ else A ∪ B``.
3. **Top-down** — starting from the root (whose inherited context is the
   null nexthop DROP), a node whose inherited choice appears in its set
   needs no entry; otherwise it is assigned an arbitrary member (we pick
   the minimum key for determinism). Unnecessary leaves disappear because
   they are simply never emitted.

The output is provably minimal in entry count over the alphabet of real
nexthops plus DROP, which is exactly the "no whiteholing" semantics the
paper requires: unrouted space stays unrouted, via structure or via
explicit null-route entries.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from repro.net.nexthop import DROP, Nexthop
from repro.net.prefix import Prefix

if TYPE_CHECKING:
    from repro.core.trie import FibTrie


class _ONode:
    """Scratch node for one ORTC run (prefixes are materialized lazily)."""

    __slots__ = ("left", "right", "label", "eff", "nhset")

    def __init__(self) -> None:
        self.left: Optional[_ONode] = None
        self.right: Optional[_ONode] = None
        self.label: Optional[Nexthop] = None
        self.eff: Nexthop = DROP
        self.nhset: frozenset[Nexthop] = frozenset()


def _build(entries: Iterable[tuple[Prefix, Nexthop]], width: int) -> _ONode:
    root = _ONode()
    for prefix, nexthop in entries:
        if prefix.width != width:
            raise ValueError(f"{prefix} has width {prefix.width}, expected {width}")
        node = root
        value = prefix.value
        for shift in range(width - 1, width - 1 - prefix.length, -1):
            if (value >> shift) & 1:
                nxt = node.right
                if nxt is None:
                    nxt = node.right = _ONode()
            else:
                nxt = node.left
                if nxt is None:
                    nxt = node.left = _ONode()
            node = nxt
        node.label = nexthop
    return root


def _merge(a: frozenset[Nexthop], b: frozenset[Nexthop]) -> frozenset[Nexthop]:
    """ORTC pass-2 merge: intersection when non-empty, else union."""
    inter = a & b
    return inter if inter else a | b


class _SetInterner:
    """Deduplicates the pass-2 candidate sets, the dominant allocation.

    Real tables have few distinct nexthops, so the same small frozensets
    recur millions of times across nodes. Interning makes every distinct
    set exist once; because members are interned, the merge of two sets
    can additionally be memoized by identity, skipping the set algebra
    itself on repeats. The caches hold references, so the ids used as
    keys stay valid for the interner's lifetime (one ORTC run).
    """

    __slots__ = ("_singletons", "_interned", "_merges")

    def __init__(self) -> None:
        self._singletons: dict[Nexthop, frozenset[Nexthop]] = {}
        self._interned: dict[frozenset[Nexthop], frozenset[Nexthop]] = {}
        self._merges: dict[tuple[int, int], frozenset[Nexthop]] = {}

    def singleton(self, value: Nexthop) -> frozenset[Nexthop]:
        got = self._singletons.get(value)
        if got is None:
            fresh = frozenset((value,))
            got = self._interned.setdefault(fresh, fresh)
            self._singletons[value] = got
        return got

    def merge(self, a: frozenset[Nexthop], b: frozenset[Nexthop]) -> frozenset[Nexthop]:
        if a is b:
            return a
        key = (id(a), id(b)) if id(a) <= id(b) else (id(b), id(a))
        got = self._merges.get(key)
        if got is None:
            fresh = _merge(a, b)
            got = self._interned.setdefault(fresh, fresh)
            self._merges[key] = got
        return got


def _bottom_up(root: _ONode) -> None:
    """Passes 1+2: compute effective inherited labels and candidate sets."""
    interner = _SetInterner()
    # Iterative post-order: (node, inherited, expanded?) frames.
    stack: list[tuple[_ONode, Nexthop, bool]] = [(root, DROP, False)]
    while stack:
        node, inherited, expanded = stack.pop()
        eff = node.label if node.label is not None else inherited
        if not expanded:
            node.eff = eff
            stack.append((node, inherited, True))
            if node.right is not None:
                stack.append((node.right, eff, False))
            if node.left is not None:
                stack.append((node.left, eff, False))
            continue
        if node.left is None and node.right is None:
            node.nhset = interner.singleton(eff)
        else:
            phantom = interner.singleton(eff)
            left_set = node.left.nhset if node.left is not None else phantom
            right_set = node.right.nhset if node.right is not None else phantom
            node.nhset = interner.merge(left_set, right_set)


def _top_down(root: _ONode, width: int) -> dict[Prefix, Nexthop]:
    """Pass 3: assign nexthops top-down, emitting only necessary entries."""
    out: dict[Prefix, Nexthop] = {}
    stack: list[tuple[_ONode, Nexthop, int, int]] = [(root, DROP, 0, 0)]
    while stack:
        node, assigned, value, length = stack.pop()
        if assigned in node.nhset:
            choice = assigned
        else:
            choice = min(node.nhset)
            # The virtual context above the root is DROP, so an explicit
            # DROP at the root would be redundant; it cannot happen here
            # because DROP ∈ nhset would have taken the branch above.
            out[Prefix(value, length, width)] = choice
        if node.left is None and node.right is None:
            continue
        child_bit = 1 << (width - 1 - length)
        for bit, child in ((0, node.left), (1, node.right)):
            child_value = value | child_bit if bit else value
            if child is not None:
                stack.append((child, choice, child_value, length + 1))
            elif node.eff != choice:
                # Phantom leaf: the missing half resolves uniformly to the
                # node's effective inherited nexthop and needs an explicit
                # entry whenever the new propagated choice differs.
                out[Prefix(child_value, length + 1, width)] = node.eff
    return out


def ortc(
    entries: Iterable[tuple[Prefix, Nexthop]], width: int = 32
) -> dict[Prefix, Nexthop]:
    """Optimally aggregate a prefix table.

    ``entries`` is any iterable of ``(prefix, nexthop)`` pairs; the result
    maps prefixes to nexthops (possibly including explicit DROP entries)
    and is semantically equivalent to the input: every address resolves to
    the same nexthop, with "no match" treated as DROP.
    """
    root = _build(entries, width)
    _bottom_up(root)
    return _top_down(root, width)


def ortc_from_trie(trie: FibTrie) -> dict[Prefix, Nexthop]:
    """Snapshot fast path: ORTC fed directly from the live union trie.

    Mirrors the :class:`~repro.core.trie.FibTrie` structure into the
    scratch tree in a single walk — no ``ot_table()`` dict, no per-entry
    bit-by-bit re-insertion from the root — then runs passes 2 and 3
    unchanged. The mirror may contain extra unlabeled leaves (nodes that
    exist only for AT labels or bookkeeping); these are semantically the
    phantom leaves pass 1 already models — an unlabeled leaf carries the
    singleton set of its inherited nexthop, exactly what a missing child
    contributes — so the output table is *identical* to
    ``ortc(trie.ot_entries(), trie.width)``, which the differential tests
    assert.
    """
    root = _ONode()
    stack = [(trie.root, root)]
    while stack:
        node, mirror = stack.pop()
        mirror.label = node.d_o
        if node.left is not None:
            mirror.left = _ONode()
            stack.append((node.left, mirror.left))
        if node.right is not None:
            mirror.right = _ONode()
            stack.append((node.right, mirror.right))
    _bottom_up(root)
    return _top_down(root, trie.width)
