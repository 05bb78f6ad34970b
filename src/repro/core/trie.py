"""The dual-labeled binary trie underlying SMALTA.

The paper's algorithms walk "descendants in OT or AT" (Algorithm 3) —
i.e. they operate on the *union* of the Original Tree and the Aggregated
Tree. The natural realization is a single binary trie whose nodes carry
two independent labels:

- ``d_o`` — the node's nexthop in the Original Tree (None when the prefix
  is not an OT entry),
- ``d_a`` — the node's nexthop in the Aggregated Tree,

plus the SMALTA bookkeeping: ``pi``, a pointer from a deaggregate node to
its preimage node in the OT, and the reverse index ``deaggs`` used by the
"visit deaggregates of P" loops of Algorithms 1 and 2.

Nodes with no labels, no bookkeeping and no children are pruned eagerly so
that the trie's size stays proportional to the live table sizes.

The snapshot's ORTC state lives on the nodes too: ``nhset`` (the pass-2
candidate set) and ``choice`` (the pass-3 choice) from the last run, and
``dirty``, the mark the three writers (:meth:`FibTrie.set_ot`,
:meth:`FibTrie.set_at_node`, :meth:`FibTrie.set_pi`) leave on what they
change. The next snapshot redoes ORTC only on the marked region.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from repro.core.ortc import CLEAN, DIRTY, OT_DIRTY, SetInterner, ortc_region
from repro.net.nexthop import DROP, Nexthop
from repro.net.prefix import Prefix

#: A node's pass-2 set before any ORTC run computed one (a real
#: candidate set is never empty).
NO_SET: frozenset[Nexthop] = frozenset()


class Node:
    """One trie node; represents the prefix spelled by the root-to-node path."""

    __slots__ = (
        "prefix",
        "parent",
        "left",
        "right",
        "d_o",
        "d_a",
        "pi",
        "deaggs",
        "nhset",
        "choice",
        "dirty",
    )

    def __init__(self, prefix: Prefix, parent: Optional["Node"]) -> None:
        self.prefix = prefix
        self.parent = parent
        self.left: Optional[Node] = None
        self.right: Optional[Node] = None
        self.d_o: Optional[Nexthop] = None
        self.d_a: Optional[Nexthop] = None
        #: Preimage pointer: for a deaggregate node in the AT, the OT node
        #: whose address space this node covers a piece of.
        self.pi: Optional[Node] = None
        #: Reverse index of ``pi``: nodes whose preimage is this node.
        self.deaggs: Optional[set[Node]] = None
        #: ORTC pass 2's candidate set and pass 3's choice, as of the
        #: last run that visited this node.
        self.nhset: frozenset[Nexthop] = NO_SET
        self.choice: Optional[Nexthop] = None
        #: What changed here since the last snapshot (``repro.core.ortc``
        #: names the values); a flagged node's ancestors are flagged.
        self.dirty = CLEAN

    def child(self, bit: int) -> Optional["Node"]:
        return self.right if bit else self.left

    def children(self) -> Iterator["Node"]:
        if self.left is not None:
            yield self.left
        if self.right is not None:
            yield self.right

    @property
    def is_empty(self) -> bool:
        """True when the node carries no information and may be pruned."""
        return (
            self.d_o is None
            and self.d_a is None
            and self.pi is None
            and not self.deaggs
            and self.left is None
            and self.right is None
        )

    def __repr__(self) -> str:
        return f"Node({self.prefix}, d_o={self.d_o}, d_a={self.d_a})"


class FibTrie:
    """The OT/AT union tree with label accessors the SMALTA algorithms use.

    All mutation of ``d_a`` labels should go through :meth:`set_at`, which
    lets a caller (the :class:`~repro.core.smalta.SmaltaState`) observe
    changes for FIB-download generation.
    """

    def __init__(self, width: int = 32) -> None:
        self.width = width
        self.root = Node(Prefix.root(width), None)
        #: Off-tree sentinel representing the *unrouted* covering context
        #: (the paper's nil P with nexthop ε): explicit DROP entries are
        #: registered as its deaggregates so the update algorithms' "visit
        #: deaggregates of P" loops can find them.
        self.nil_node = Node(Prefix.root(width), None)
        self._ot_count = 0
        self._at_count = 0
        #: Interns the pass-2 sets the nodes keep between snapshots.
        self.interner = SetInterner()
        #: Observer invoked as ``(prefix, old_label, new_label)`` on every
        #: d_a mutation; installed by SmaltaState to log FIB downloads.
        self.at_observer: Optional[Callable[[Prefix, Optional[Nexthop], Optional[Nexthop]], None]] = None

    # -- navigation ---------------------------------------------------

    def find(self, prefix: Prefix) -> Optional[Node]:
        """The node for ``prefix``, or None when absent."""
        node: Optional[Node] = self.root
        value = prefix.value
        for shift in range(self.width - 1, self.width - 1 - prefix.length, -1):
            if node is None:
                return None
            node = node.right if (value >> shift) & 1 else node.left
        return node

    def ensure(self, prefix: Prefix) -> Node:
        """The node for ``prefix``, creating intermediate nodes as needed."""
        node = self.root
        value = prefix.value
        for shift in range(self.width - 1, self.width - 1 - prefix.length, -1):
            bit = (value >> shift) & 1
            nxt = node.right if bit else node.left
            if nxt is None:
                nxt = Node(node.prefix.child(bit), node)
                if bit:
                    node.right = nxt
                else:
                    node.left = nxt
            node = nxt
        return node

    @staticmethod
    def _mark(node: Node, level: int = DIRTY) -> None:
        """Record a write at ``node`` for the next snapshot.

        Raises the node's mark to ``level`` and flags its ancestors up to
        the first one already flagged. A node is flagged at most once
        between snapshots, so marking costs O(1) amortized per write, and
        it holds nothing: the marks are the nodes' own slots.
        """
        if node.dirty:
            if node.dirty < level:
                node.dirty = level
            return
        node.dirty = level
        parent = node.parent
        while parent is not None and not parent.dirty:
            parent.dirty = DIRTY
            parent = parent.parent

    def prune(self, node: Node) -> None:
        """Remove ``node`` and any newly-empty ancestors (root always stays)."""
        while node is not self.root and node.is_empty:
            parent = node.parent
            if parent is None:
                return  # already detached by an earlier prune
            if parent.left is node:
                parent.left = None
            else:
                parent.right = None
            node.parent = None
            node = parent

    # -- OT label operations -------------------------------------------

    def get_ot(self, prefix: Prefix) -> Optional[Nexthop]:
        node = self.find(prefix)
        return node.d_o if node is not None else None

    def set_ot(self, prefix: Prefix, nexthop: Optional[Nexthop]) -> Optional[Nexthop]:
        """Set (or clear with None) the OT label; returns the previous label."""
        if nexthop is None:
            node = self.find(prefix)
            if node is None or node.d_o is None:
                return None
            old = node.d_o
            node.d_o = None
            self._ot_count -= 1
            self._mark(node, OT_DIRTY)
            self.prune(node)
            return old
        node = self.ensure(prefix)
        old = node.d_o
        node.d_o = nexthop
        if old is None:
            self._ot_count += 1
        if node.dirty != OT_DIRTY:
            self._mark(node, OT_DIRTY)
        return old

    # -- AT label operations -------------------------------------------

    def get_at(self, prefix: Prefix) -> Optional[Nexthop]:
        node = self.find(prefix)
        return node.d_a if node is not None else None

    def set_at_node(self, node: Node, nexthop: Optional[Nexthop]) -> None:
        """Mutate a node's AT label in place, notifying the observer.

        Clearing a label also clears the node's preimage pointer (a node
        that is not in the AT cannot be a deaggregate of anything) and
        prunes the node if it became empty.
        """
        old = node.d_a
        if old == nexthop:
            return
        node.d_a = nexthop
        if not node.dirty:
            self._mark(node)
        if old is None:
            self._at_count += 1
        elif nexthop is None:
            self._at_count -= 1
        if self.at_observer is not None:
            self.at_observer(node.prefix, old, nexthop)
        if nexthop is None:
            self.set_pi(node, None)
            self.prune(node)

    def set_at(self, prefix: Prefix, nexthop: Optional[Nexthop]) -> None:
        if nexthop is None:
            node = self.find(prefix)
            if node is not None:
                self.set_at_node(node, None)
            return
        self.set_at_node(self.ensure(prefix), nexthop)

    # -- preimage bookkeeping -------------------------------------------

    def set_pi(self, node: Node, preimage: Optional[Node]) -> None:
        """Point ``node``'s preimage at ``preimage``, keeping the reverse index."""
        old = node.pi
        if old is preimage:
            return
        if not node.dirty:
            self._mark(node)
        if old is not None and old.deaggs:
            old.deaggs.discard(node)
            if not old.deaggs:
                old.deaggs = None
                self.prune(old)
        node.pi = preimage
        if preimage is not None:
            if preimage.deaggs is None:
                preimage.deaggs = set()
            preimage.deaggs.add(node)
        elif node.d_a is None:
            self.prune(node)

    def deaggregates_of(self, node: Node) -> list[Node]:
        """A snapshot list of nodes whose preimage pointer targets ``node``.

        Sorted by prefix: the reverse index is a set hashed on object
        identity, so its raw iteration order varies with allocation order
        — which differs between trie backends even when the node *graphs*
        are identical. The update algorithms are order-insensitive, but a
        deterministic order is what lets the differential suite demand
        byte-identical download logs across backends.
        """
        if not node.deaggs:
            return []
        return sorted(
            node.deaggs, key=lambda n: (n.prefix.value, n.prefix.length)
        )

    # -- longest-prefix machinery ---------------------------------------

    def _walk(self, prefix: Prefix) -> Iterator[Node]:
        """Nodes on the root-to-``prefix`` path, as far as they exist."""
        node: Optional[Node] = self.root
        yield self.root
        value = prefix.value
        for shift in range(self.width - 1, self.width - 1 - prefix.length, -1):
            node = node.right if (value >> shift) & 1 else node.left
            if node is None:
                return
            yield node

    def psi_o(self, prefix: Prefix) -> Optional[Node]:
        """Ψ_O(p): the longest proper ancestor of p with a non-null OT label."""
        best = None
        for node in self._walk(prefix):
            if node.prefix.length < prefix.length and node.d_o is not None:
                best = node
        return best

    def psi_eq_o(self, prefix: Prefix) -> Optional[Node]:
        """Ψ=_O(p): the longest prefix ≤ p with a non-null OT label."""
        best = None
        for node in self._walk(prefix):
            if node.d_o is not None:
                best = node
        return best

    def psi_a(self, prefix: Prefix) -> Optional[Node]:
        """Ψ_A(p): the longest proper ancestor of p with a non-null AT label."""
        best = None
        for node in self._walk(prefix):
            if node.prefix.length < prefix.length and node.d_a is not None:
                best = node
        return best

    def present_at(self, prefix: Prefix) -> Nexthop:
        """The AT nexthop *present* at ``prefix`` (Definition 5): the label
        of the longest AT prefix ≤ p, or DROP when none exists."""
        best = DROP
        for node in self._walk(prefix):
            if node.d_a is not None:
                best = node.d_a
        return best

    def lookup_ot(self, address: int) -> Nexthop:
        """Longest-prefix-match lookup against the Original Tree."""
        return self._lookup(address, "d_o")

    def lookup_at(self, address: int) -> Nexthop:
        """Longest-prefix-match lookup against the Aggregated Tree."""
        return self._lookup(address, "d_a")

    def _lookup(self, address: int, attr: str) -> Nexthop:
        node: Optional[Node] = self.root
        best = DROP
        shift = self.width - 1
        while node is not None:
            label = getattr(node, attr)
            if label is not None:
                best = label
            if shift < 0:
                break
            node = node.right if (address >> shift) & 1 else node.left
            shift -= 1
        return best

    # -- iteration / export ----------------------------------------------

    def _entries(self, attr: str) -> Iterator[tuple[Prefix, Nexthop]]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            label = getattr(node, attr)
            if label is not None:
                yield node.prefix, label
            if node.right is not None:
                stack.append(node.right)
            if node.left is not None:
                stack.append(node.left)

    def ot_entries(self) -> Iterator[tuple[Prefix, Nexthop]]:
        return self._entries("d_o")

    def at_entries(self) -> Iterator[tuple[Prefix, Nexthop]]:
        return self._entries("d_a")

    def ot_table(self) -> dict[Prefix, Nexthop]:
        return dict(self.ot_entries())

    def at_table(self) -> dict[Prefix, Nexthop]:
        return dict(self.at_entries())

    def ortc_table(self) -> dict[Prefix, Nexthop]:
        """ORTC's labels for the marked region (the snapshot core).

        :meth:`~repro.core.smalta.SmaltaState.snapshot` calls this: ORTC
        passes 2 and 3 run on the live nodes, redone only where the
        writers marked a change, and the result holds the region's new
        labels. Outside the region the labels the last snapshot
        installed stand. The marks stay until a snapshot installs the
        labels, so a second call recomputes the same region. On a trie
        whose every node is marked (a freshly loaded one, before
        End-of-RIB) the result is the whole optimal table, identical to
        ``ortc(self.ot_entries(), self.width)``; any other caller that
        wants the whole table should use that.
        """
        return ortc_region(self)

    @property
    def ot_size(self) -> int:
        """Number of Original Tree entries (#(OT) in the paper)."""
        return self._ot_count

    @property
    def at_size(self) -> int:
        """Number of Aggregated Tree entries (#(AT) in the paper)."""
        return self._at_count

    def node_count(self) -> int:
        """Total allocated trie nodes (for memory diagnostics)."""
        count = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            count += 1
            stack.extend(node.children())
        return count

    def iter_nodes(self) -> Iterator[Node]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children())

    def close(self) -> None:
        """Release backend resources; a plain trie holds none."""
