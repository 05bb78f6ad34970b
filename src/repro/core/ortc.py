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

The module runs ORTC two ways:

- :func:`ortc` — the entry-stream reference: it builds a scratch tree of
  :class:`_ONode` from any ``(prefix, nexthop)`` iterable and runs the
  three passes over it. The tests and the benchmark gate compare the
  snapshot against it, so it shares no state with the snapshot.
- :func:`ortc_region` — passes 2 and 3 (:func:`_bottom_up`,
  :func:`_top_down`) on the live :class:`~repro.core.trie.FibTrie`,
  redone only where the trie's writers marked a change since the last
  snapshot (the ``dirty`` marks below). The pass-2 sets and pass-3
  choices stay on the trie's nodes between snapshots;
  :meth:`~repro.core.trie.FibTrie.ortc_table` runs it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from repro.net.nexthop import DROP, Nexthop
from repro.net.prefix import Prefix

if TYPE_CHECKING:
    from repro.core.trie import FibTrie, Node

#: ``Node.dirty`` values: what changed at a node since the last snapshot
#: installed its labels. A flagged node's ancestors are always flagged.
CLEAN = 0
#: The node or a descendant was written (an OT, AT or π write), or the
#: last ORTC run found the node's inherited choice moved.
DIRTY = 1
#: The node's own OT label changed, so the label its unlabelled
#: descendants inherit changed too.
OT_DIRTY = 2


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


class SetInterner:
    """Deduplicates the pass-2 candidate sets, the dominant allocation.

    Real tables have few distinct nexthops, so the same small frozensets
    recur millions of times across nodes. Interning makes every distinct
    set exist once; because members are interned, the merge of two sets
    can additionally be memoized by identity, skipping the set algebra
    itself on repeats. The caches hold references, so the ids used as
    keys stay valid for the interner's lifetime: one reference ORTC run,
    or the life of the :class:`~repro.core.trie.FibTrie` that owns it.
    It grows with the distinct nexthop combinations, not the table.
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


def _scratch_bottom_up(root: _ONode) -> None:
    """Passes 1+2 on the scratch tree: effective labels and candidate sets."""
    interner = SetInterner()
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


def _scratch_top_down(root: _ONode, width: int) -> dict[Prefix, Nexthop]:
    """Pass 3 on the scratch tree: emit only the necessary entries."""
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
    _scratch_bottom_up(root)
    return _scratch_top_down(root, width)


def _bottom_up(trie: FibTrie) -> None:
    """Pass 2 on the live trie, redone only on the marked region.

    The region is every flagged node (the root path of each write since
    the last snapshot) plus, below each node whose OT label changed, the
    unlabelled nodes that inherit that label. A node's set depends only
    on the OT labels below it and the label it inherits, so every other
    node's set, kept from the last run, is still exact. The region's
    inheriting nodes are flagged here, so pass 3 and the install visit
    them too. Unlabelled subtrees (AT-only or bookkeeping nodes) carry
    the singleton of their inherited label, as a phantom leaf would, so
    the sets equal those of the scratch tree :func:`ortc` builds.
    """
    root = trie.root
    if not root.dirty:
        return
    singleton = trie.interner.singleton
    merge = trie.interner.merge
    # Post-order frames: (node, inherited label, inherited label changed?,
    # expanded?).
    stack: list[tuple[Node, Nexthop, bool, bool]] = [(root, DROP, False, False)]
    while stack:
        node, inherited, changed, expanded = stack.pop()
        d_o = node.d_o
        eff = d_o if d_o is not None else inherited
        left = node.left
        right = node.right
        if not expanded:
            stack.append((node, inherited, changed, True))
            changed = node.dirty == OT_DIRTY or (changed and d_o is None)
            for child in (right, left):
                if child is None:
                    continue
                if child.dirty:
                    stack.append((child, eff, changed, False))
                elif changed and child.d_o is None:
                    child.dirty = DIRTY
                    stack.append((child, eff, changed, False))
            continue
        if left is None and right is None:
            node.nhset = singleton(eff)
        else:
            phantom = singleton(eff)
            node.nhset = merge(
                left.nhset if left is not None else phantom,
                right.nhset if right is not None else phantom,
            )


def _top_down(trie: FibTrie) -> dict[Prefix, Nexthop]:
    """Pass 3 on the live trie: the new labels of the marked region.

    Visits every flagged node, and below it every node whose inherited
    choice differs from the one it had at the last run, flagging those
    so the install visits them. Elsewhere both the sets and the inherited
    choices are unchanged, so the labels are too. Each visited node keeps
    its choice for the next run. The result holds the region's new labels
    (phantom leaves included) in the order a full pass 3 over this trie's
    nodes would emit them: a node, its missing halves, then its right
    and left subtrees.
    """
    out: dict[Prefix, Nexthop] = {}
    root = trie.root
    if not root.dirty:
        return out
    # Pre-order frames: (node, parent's choice, inherited label).
    stack: list[tuple[Node, Nexthop, Nexthop]] = [(root, DROP, DROP)]
    while stack:
        node, assigned, inherited = stack.pop()
        nhset = node.nhset
        if assigned in nhset:
            choice = assigned
        else:
            choice = min(nhset)
            out[node.prefix] = choice
        moved = choice != node.choice
        node.choice = choice
        left = node.left
        right = node.right
        if left is None and right is None:
            continue
        d_o = node.d_o
        eff = d_o if d_o is not None else inherited
        if left is None:
            if eff != choice:
                out[node.prefix.child(0)] = eff
        elif left.dirty or moved:
            left.dirty = left.dirty or DIRTY
            stack.append((left, choice, eff))
        if right is None:
            if eff != choice:
                out[node.prefix.child(1)] = eff
        elif right.dirty or moved:
            right.dirty = right.dirty or DIRTY
            stack.append((right, choice, eff))
    return out


def ortc_region(trie: FibTrie) -> dict[Prefix, Nexthop]:
    """Passes 2 and 3 over the trie's marked region: its new labels."""
    _bottom_up(trie)
    return _top_down(trie)
