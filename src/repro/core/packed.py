"""Cache-aware packed trie backend: flat stride arrays on the hot path.

The reference :class:`~repro.core.trie.FibTrie` answers a longest-prefix
lookup by chasing one Python object per bit — up to 33 pointer hops and
attribute loads per address at IPv4 width. ``PackedBackend`` keeps that
node trie as a *shadow* (so every structural walk ``SmaltaState`` and
the auditor make — ψ walks, the snapshot's ORTC passes and install,
entry iteration — behaves byte-for-byte like the reference), and
overlays two level-compressed stride tables (one per label plane, OT
and AT) built from flat ``array`` buffers with no per-node objects at
all:

- the first level is one directly-indexed block of ``2**s0`` slots
  (``s0 = min(16, width)`` — the DIR-24-8 idea scaled to the configured
  width), subsequent levels add 8 bits per step;
- a *slot* is three parallel array cells: ``values`` (nexthop key),
  ``lens`` (length of the controlling prefix, ``-1`` for "no route"),
  and ``children`` (block id one level down, ``-1`` for "leaf slot");
- a lookup splits the address into stride chunks and indexes one block
  per level; the answer is whatever the deepest reachable slot stores.
  No objects, no per-bit branching — three array loads per level.

Updates are *incremental per-stride patching*, not rebuilds: inserting
prefix ``P/L`` paints the slot range ``P`` covers in its residence
level, overwriting exactly the slots whose current controlling prefix
is no longer than ``L`` (child blocks inherit monotonically longer
controlling prefixes, so the paint descends only through slots it
repainted). Deleting ``P/L`` paints the same range with the label of
``P``'s longest live ancestor — found by one ψ walk of the shadow trie.
Child blocks are allocated on first need (backfilled from the parent
slot, which by the invariant above holds exactly the right initial
answer for every new slot), refcounted by the entries at or below them,
and recycled through a freelist when their last entry leaves.

The update algorithms above the seam are untouched: this class hooks
the two label mutation points (:meth:`set_ot`, :meth:`set_at_node`),
patches the packed plane, and defers everything else to the shadow —
which is what makes the differential harness's byte-identity proof
carry over wholesale.
"""

from __future__ import annotations

from array import array
from typing import Optional

from repro.core.trie import FibTrie, Node
from repro.net.nexthop import DROP, Nexthop
from repro.net.prefix import Prefix
from repro.obs.observability import Observability

#: Widest directly-indexed first level: 2**16 slots ≈ 640 KiB of arrays.
FIRST_STRIDE = 16
#: Every level after the first adds this many bits.
NEXT_STRIDE = 8


def plan_strides(width: int) -> tuple[int, ...]:
    """The per-level bit widths covering ``width`` address bits."""
    if width < 1:
        raise ValueError(f"width must be >= 1 (got {width})")
    strides = [min(FIRST_STRIDE, width)]
    remaining = width - strides[0]
    while remaining > 0:
        step = min(NEXT_STRIDE, remaining)
        strides.append(step)
        remaining -= step
    return tuple(strides)


class _PackedTable:
    """One label plane (OT or AT) as level-compressed stride arrays.

    Block ``b`` of level ``level`` occupies slots
    ``[b << stride, (b + 1) << stride)`` of that level's three parallel
    arrays. Level 0 is exactly one block, allocated up front and never
    freed; deeper blocks are demand-allocated, refcounted by
    ``direct[b]`` (entries whose residence slot is inside ``b``) plus
    ``kids[b]`` (live child blocks), and pushed onto a per-level
    freelist when both hit zero.
    """

    __slots__ = (
        "width",
        "strides",
        "cum",
        "values",
        "lens",
        "children",
        "direct",
        "kids",
        "parent_slot",
        "free",
        "entry_count",
    )

    def __init__(self, width: int, strides: tuple[int, ...]) -> None:
        self.width = width
        self.strides = strides
        #: ``cum[i]`` = address bits consumed before level ``i``.
        self.cum = tuple(sum(strides[:i]) for i in range(len(strides) + 1))
        self.values: list[array[int]] = []
        self.lens: list[array[int]] = []
        self.children: list[array[int]] = []
        self.direct: list[list[int]] = []
        self.kids: list[list[int]] = []
        self.parent_slot: list[list[int]] = []
        self.free: list[list[int]] = []
        for index, stride in enumerate(strides):
            size = 1 << stride if index == 0 else 0
            self.values.append(array("i", [-1]) * size)
            self.lens.append(array("h", [-1]) * size)
            self.children.append(array("i", [-1]) * size)
            self.direct.append([0] * (1 if index == 0 else 0))
            self.kids.append([0] * (1 if index == 0 else 0))
            self.parent_slot.append([-1] * (1 if index == 0 else 0))
            self.free.append([])
        self.entry_count = 0

    # -- residence geometry -------------------------------------------

    def _residence_level(self, length: int) -> int:
        """The level whose slots a ``length``-bit prefix paints."""
        level = 0
        while length > self.cum[level + 1]:
            level += 1
        return level

    def _chunk(self, value: int, level: int) -> int:
        """The level-``level`` slot index spelled by ``value``'s bits."""
        shift = self.width - self.cum[level + 1]
        return (value >> shift) & ((1 << self.strides[level]) - 1)

    # -- block lifecycle ----------------------------------------------

    def _alloc_block(self, level: int, parent_global_slot: int) -> int:
        """A fresh (or recycled) block, backfilled from its parent slot."""
        size = 1 << self.strides[level]
        parent_value = self.values[level - 1][parent_global_slot]
        parent_len = self.lens[level - 1][parent_global_slot]
        free = self.free[level]
        if free:
            block = free.pop()
            base = block << self.strides[level]
            for slot in range(base, base + size):
                self.values[level][slot] = parent_value
                self.lens[level][slot] = parent_len
                self.children[level][slot] = -1
            self.direct[level][block] = 0
            self.kids[level][block] = 0
            self.parent_slot[level][block] = parent_global_slot
            return block
        block = len(self.direct[level])
        self.values[level].extend(array("i", [parent_value]) * size)
        self.lens[level].extend(array("h", [parent_len]) * size)
        self.children[level].extend(array("i", [-1]) * size)
        self.direct[level].append(0)
        self.kids[level].append(0)
        self.parent_slot[level].append(parent_global_slot)
        return block

    def _block_path(self, value: int, level: int, allocate: bool) -> int:
        """The block id holding ``value``'s residence slots at ``level``.

        With ``allocate`` set, missing blocks on the way down are
        created (and wired into their parent slots); otherwise a missing
        block raises — deletes may only touch paths inserts built.
        """
        block = 0
        for upper in range(level):
            slot = (block << self.strides[upper]) + self._chunk(value, upper)
            child = self.children[upper][slot]
            if child < 0:
                if not allocate:
                    raise AssertionError(
                        f"packed table missing block at level {upper + 1}"
                    )
                child = self._alloc_block(upper + 1, slot)
                self.children[upper][slot] = child
                self.kids[upper][block] += 1
            block = child
        return block

    def _release(self, level: int, block: int) -> None:
        """Free ``block`` and any newly-empty ancestors (level 0 stays)."""
        while (
            level > 0
            and self.direct[level][block] == 0
            and self.kids[level][block] == 0
        ):
            parent_global = self.parent_slot[level][block]
            self.free[level].append(block)
            self.children[level - 1][parent_global] = -1
            level -= 1
            block = parent_global >> self.strides[level]
            self.kids[level][block] -= 1

    # -- painting ------------------------------------------------------

    def _paint(
        self, level: int, lo: int, hi: int, limit: int, value: int, length: int
    ) -> None:
        """Write ``(value, length)`` into every slot of ``[lo, hi)`` whose
        controlling prefix is no longer than ``limit`` bits, descending
        into child blocks behind repainted slots (explicit stack:
        REPRO007 bans recursion, and IPv6 has 15 levels anyway)."""
        stack = [(level, lo, hi)]
        while stack:
            lvl, start, stop = stack.pop()
            lens = self.lens[lvl]
            values = self.values[lvl]
            children = self.children[lvl]
            for slot in range(start, stop):
                if lens[slot] > limit:
                    continue
                lens[slot] = length
                values[slot] = value
                child = children[slot]
                if child >= 0:
                    size = 1 << self.strides[lvl + 1]
                    base = child << self.strides[lvl + 1]
                    stack.append((lvl + 1, base, base + size))

    def _span(self, value: int, length: int, level: int) -> tuple[int, int]:
        """The in-block slot range prefix ``value/length`` covers."""
        stride = self.strides[level]
        top = self._chunk(value, level)
        span = 1 << (self.cum[level + 1] - length)
        lo = top & ~(span - 1)
        return lo, lo + span

    # -- the three mutations ------------------------------------------

    def add(self, value: int, length: int, key: int) -> None:
        """Install a brand-new entry ``value/length → key``."""
        level = self._residence_level(length)
        block = self._block_path(value, level, allocate=True)
        lo, hi = self._span(value, length, level)
        base = block << self.strides[level]
        self._paint(level, base + lo, base + hi, length, key, length)
        self.direct[level][block] += 1
        self.entry_count += 1

    def update(self, value: int, length: int, key: int) -> None:
        """Re-label an existing entry (same prefix, new nexthop)."""
        level = self._residence_level(length)
        block = self._block_path(value, level, allocate=False)
        lo, hi = self._span(value, length, level)
        base = block << self.strides[level]
        self._paint(level, base + lo, base + hi, length, key, length)

    def remove(
        self, value: int, length: int, cover_key: int, cover_length: int
    ) -> None:
        """Withdraw an entry, repainting its slots with the covering
        entry ``cover_key`` at ``cover_length`` bits (``-1`` for none)."""
        level = self._residence_level(length)
        block = self._block_path(value, level, allocate=False)
        lo, hi = self._span(value, length, level)
        base = block << self.strides[level]
        self._paint(level, base + lo, base + hi, length, cover_key, cover_length)
        self.direct[level][block] -= 1
        self.entry_count -= 1
        self._release(level, block)

    # -- reads ---------------------------------------------------------

    def lookup(self, address: int) -> tuple[int, int]:
        """``(key, length)`` of the longest match; ``length < 0`` = none."""
        width = self.width
        cum = self.cum
        strides = self.strides
        children = self.children
        last = len(strides) - 1
        block = 0
        level = 0
        while True:
            stride = strides[level]
            slot = (block << stride) + (
                (address >> (width - cum[level + 1])) & ((1 << stride) - 1)
            )
            if level == last:
                break
            child = children[level][slot]
            if child < 0:
                break
            block = child
            level += 1
        return self.values[level][slot], self.lens[level][slot]

    # -- diagnostics ---------------------------------------------------

    def packed_bytes(self) -> int:
        """Bytes held by the flat arrays (allocated slots, all levels)."""
        total = 0
        for plane in (self.values, self.lens, self.children):
            for buffer in plane:
                total += len(buffer) * buffer.itemsize
        return total

    def live_slot_count(self) -> int:
        """Allocated slots minus freelisted blocks' slots."""
        total = 0
        for level, stride in enumerate(self.strides):
            blocks = len(self.direct[level]) - len(self.free[level])
            total += blocks << stride
        return total

    def mismatch_against(self, other: "_PackedTable") -> Optional[str]:
        """First structural divergence from ``other``, or None.

        Walks both tables' reachable blocks in lockstep (block *ids*
        may differ — allocation order is history-dependent — but the
        reachable slot contents may not), comparing every slot's
        ``(value, len, child-present)`` triple. Used by the self-check
        tests to prove incremental patching ≡ rebuild from scratch.
        """
        if self.strides != other.strides:
            return f"stride plan {self.strides} != {other.strides}"
        stack = [(0, 0, 0)]
        while stack:
            level, mine, theirs = stack.pop()
            stride = self.strides[level]
            base_a = mine << stride
            base_b = theirs << stride
            for offset in range(1 << stride):
                slot_a = base_a + offset
                slot_b = base_b + offset
                len_a = self.lens[level][slot_a]
                len_b = other.lens[level][slot_b]
                if len_a != len_b:
                    return (
                        f"level {level} slot {offset}: len {len_a} != {len_b}"
                    )
                if len_a >= 0 and (
                    self.values[level][slot_a] != other.values[level][slot_b]
                ):
                    return (
                        f"level {level} slot {offset}: value "
                        f"{self.values[level][slot_a]} != "
                        f"{other.values[level][slot_b]}"
                    )
                child_a = self.children[level][slot_a]
                child_b = other.children[level][slot_b]
                if (child_a < 0) != (child_b < 0):
                    return (
                        f"level {level} slot {offset}: child presence "
                        f"{child_a >= 0} != {child_b >= 0}"
                    )
                if child_a >= 0:
                    stack.append((level + 1, child_a, child_b))
        return None


class PackedBackend(FibTrie):
    """A :class:`FibTrie` with array-packed OT/AT lookup planes.

    Structurally this *is* the reference trie — every node, label, and
    bookkeeping pointer lives in the inherited shadow, so the auditor,
    ψ walks, the snapshot's ORTC passes and install, and entry
    iteration are inherited verbatim and the download log stays
    byte-identical by construction. The snapshot's change marks come
    with the inherited writers, which both overrides below call.
    What changes hands: the two label mutation points additionally
    patch a :class:`_PackedTable` per plane, and the two hot-path
    lookups read those arrays instead of walking nodes.
    """

    def __init__(
        self,
        width: int = 32,
        obs: Optional[Observability] = None,
        strides: Optional[tuple[int, ...]] = None,
    ) -> None:
        super().__init__(width)
        if strides is not None:
            strides = tuple(strides)
            if sum(strides) != width or any(s < 1 for s in strides):
                raise ValueError(
                    f"strides {strides} do not tile a width-{width} space"
                )
        self.strides = strides if strides is not None else plan_strides(width)
        self._ot_plane = _PackedTable(width, self.strides)
        self._at_plane = _PackedTable(width, self.strides)
        #: Key → Nexthop for decoding packed values (DROP is key -1 and
        #: also the miss answer, so it is present from the start).
        self._nexthop_by_key: dict[int, Nexthop] = {DROP.key: DROP}
        self._obs = obs if obs is not None else Observability.null()
        #: Patch counter only — the lookup hot path stays instrumentation
        #: free on purpose (a per-lookup counter would cost more than the
        #: packed read itself).
        self._c_patches = self._obs.registry.counter(
            "smalta_packed_patches_total",
            "Incremental packed-plane patches (add/update/remove)",
        )

    # -- label mutation hooks -----------------------------------------

    def set_ot(
        self, prefix: Prefix, nexthop: Optional[Nexthop]
    ) -> Optional[Nexthop]:
        old = super().set_ot(prefix, nexthop)
        self._patch_plane(self._ot_plane, "d_o", prefix, old, nexthop)
        return old

    def set_at_node(self, node: Node, nexthop: Optional[Nexthop]) -> None:
        old = node.d_a
        prefix = node.prefix  # capture: a cleared node may be pruned
        super().set_at_node(node, nexthop)
        self._patch_plane(self._at_plane, "d_a", prefix, old, nexthop)

    def _patch_plane(
        self,
        plane: _PackedTable,
        attr: str,
        prefix: Prefix,
        old: Optional[Nexthop],
        new: Optional[Nexthop],
    ) -> None:
        if old == new:
            return
        if new is not None:
            self._nexthop_by_key[new.key] = new
            if old is None:
                plane.add(prefix.value, prefix.length, new.key)
            else:
                plane.update(prefix.value, prefix.length, new.key)
        else:
            cover = self._covering(prefix, attr)
            if cover is None:
                plane.remove(prefix.value, prefix.length, -1, -1)
            else:
                plane.remove(
                    prefix.value,
                    prefix.length,
                    cover[0].key,
                    cover[1],
                )
        self._c_patches.inc()

    def _covering(
        self, prefix: Prefix, attr: str
    ) -> Optional[tuple[Nexthop, int]]:
        """The longest proper-ancestor label of ``prefix`` on one plane
        (the repaint source for a withdraw), from the shadow trie."""
        best: Optional[tuple[Nexthop, int]] = None
        for node in self._walk(prefix):
            label: Optional[Nexthop] = getattr(node, attr)
            if label is not None and node.prefix.length < prefix.length:
                best = (label, node.prefix.length)
        return best

    # -- hot-path reads ------------------------------------------------

    def lookup_ot(self, address: int) -> Nexthop:
        key, length = self._ot_plane.lookup(address)
        return self._nexthop_by_key[key] if length >= 0 else DROP

    def lookup_at(self, address: int) -> Nexthop:
        key, length = self._at_plane.lookup(address)
        return self._nexthop_by_key[key] if length >= 0 else DROP

    # -- diagnostics / self-check --------------------------------------

    def packed_bytes(self) -> int:
        """Flat-array bytes across both planes."""
        return self._ot_plane.packed_bytes() + self._at_plane.packed_bytes()

    def packed_stats(self) -> dict[str, int]:
        """Sizing counters for benchmarks and the daemon status surface."""
        return {
            "ot_entries": self._ot_plane.entry_count,
            "at_entries": self._at_plane.entry_count,
            "ot_bytes": self._ot_plane.packed_bytes(),
            "at_bytes": self._at_plane.packed_bytes(),
            "ot_live_slots": self._ot_plane.live_slot_count(),
            "at_live_slots": self._at_plane.live_slot_count(),
        }

    def rebuilt_plane(self, attr: str) -> _PackedTable:
        """A from-scratch packed table of one label plane ('d_o'/'d_a')."""
        plane = _PackedTable(self.width, self.strides)
        entries = self.ot_entries() if attr == "d_o" else self.at_entries()
        for prefix, nexthop in sorted(
            entries, key=lambda item: item[0].length
        ):
            plane.add(prefix.value, prefix.length, nexthop.key)
        return plane

    def packed_divergence(self) -> Optional[str]:
        """First divergence between the incrementally patched planes and
        a rebuild from the shadow's entries, or None when clean."""
        for attr, plane in (("d_o", self._ot_plane), ("d_a", self._at_plane)):
            mismatch = plane.mismatch_against(self.rebuilt_plane(attr))
            if mismatch is not None:
                return f"{attr}: {mismatch}"
        return None
