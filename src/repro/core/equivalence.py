"""Semantic equivalence of prefix tables (the TaCo check, Tariq et al. 2011).

Two longest-prefix-match tables are *semantically equivalent* when every
address resolves to the same nexthop in both, with "no matching prefix"
treated as the null nexthop DROP. The paper leans on this property twice:
it is what SMALTA preserves by construction, and the authors "automatically
computed the correctness of millions of updated aggregated tables" — this
module is that machine check.

The comparison walks the *union* trie of both tables once, carrying the
propagated nexthop of each side; whenever a subtree half contains no
further labels on either side, the two propagated values must agree.
This is exact (it covers the full 2**width address space) and costs
O(total entries), not O(address space).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from repro.net.nexthop import DROP, Nexthop
from repro.net.prefix import Prefix


class _ENode:
    __slots__ = ("prefix", "left", "right", "label_a", "label_b")

    def __init__(self, prefix: Prefix) -> None:
        self.prefix = prefix
        self.left: Optional[_ENode] = None
        self.right: Optional[_ENode] = None
        self.label_a: Optional[Nexthop] = None
        self.label_b: Optional[Nexthop] = None


def _build_union(
    table_a: Mapping[Prefix, Nexthop],
    table_b: Mapping[Prefix, Nexthop],
    width: int,
) -> _ENode:
    root = _ENode(Prefix.root(width))
    for attr, table in (("label_a", table_a), ("label_b", table_b)):
        for prefix, nexthop in table.items():
            node = root
            for index in range(prefix.length):
                bit = prefix.bit(index)
                nxt = node.right if bit else node.left
                if nxt is None:
                    nxt = _ENode(node.prefix.child(bit))
                    if bit:
                        node.right = nxt
                    else:
                        node.left = nxt
                node = nxt
            setattr(node, attr, nexthop)
    return root


def equivalence_counterexample(
    table_a: Mapping[Prefix, Nexthop],
    table_b: Mapping[Prefix, Nexthop],
    width: int = 32,
) -> Optional[tuple[Prefix, Nexthop, Nexthop]]:
    """The first region where the two tables disagree, or None when equivalent.

    Returns ``(prefix, nexthop_a, nexthop_b)`` where every address in
    ``prefix`` resolves to ``nexthop_a`` under ``table_a`` but
    ``nexthop_b`` under ``table_b``.
    """
    root = _build_union(table_a, table_b, width)
    stack: list[tuple[_ENode, Nexthop, Nexthop]] = [(root, DROP, DROP)]
    while stack:
        node, eff_a, eff_b = stack.pop()
        if node.label_a is not None:
            eff_a = node.label_a
        if node.label_b is not None:
            eff_b = node.label_b
        if node.left is None and node.right is None:
            if eff_a != eff_b:
                return node.prefix, eff_a, eff_b
            continue
        for bit, child in ((0, node.left), (1, node.right)):
            if child is not None:
                stack.append((child, eff_a, eff_b))
            elif eff_a != eff_b:
                return node.prefix.child(bit), eff_a, eff_b
    return None


def divergent_regions(
    table_a: Mapping[Prefix, Nexthop],
    table_b: Mapping[Prefix, Nexthop],
    width: int = 32,
) -> list[tuple[Prefix, Nexthop, Nexthop]]:
    """All maximal-granularity regions where the two tables disagree.

    Each element is ``(prefix, nexthop_a, nexthop_b)``: every address in
    ``prefix`` resolves to ``nexthop_a`` under ``table_a`` and
    ``nexthop_b`` under ``table_b``. Installing ``prefix -> nexthop_b``
    entries on top of ``table_a`` for every returned region makes it
    equivalent to ``table_b`` (the out-of-band override construction).
    """
    root = _build_union(table_a, table_b, width)
    regions: list[tuple[Prefix, Nexthop, Nexthop]] = []
    stack: list[tuple[_ENode, Nexthop, Nexthop]] = [(root, DROP, DROP)]
    while stack:
        node, eff_a, eff_b = stack.pop()
        if node.label_a is not None:
            eff_a = node.label_a
        if node.label_b is not None:
            eff_b = node.label_b
        if node.left is None and node.right is None:
            if eff_a != eff_b:
                regions.append((node.prefix, eff_a, eff_b))
            continue
        for bit, child in ((0, node.left), (1, node.right)):
            if child is not None:
                stack.append((child, eff_a, eff_b))
            elif eff_a != eff_b:
                regions.append((node.prefix.child(bit), eff_a, eff_b))
    return regions


def semantically_equivalent(
    table_a: Mapping[Prefix, Nexthop],
    table_b: Mapping[Prefix, Nexthop],
    width: int = 32,
) -> bool:
    """True when every address resolves identically under both tables."""
    return equivalence_counterexample(table_a, table_b, width) is None


# -- VeriTable-style joint multi-table walk -----------------------------
#
# The pairwise check above costs one union-trie traversal per table
# *pair*; verifying a fleet of N hosted tables pairwise costs N walks
# (or N·(N-1)/2 for all-pairs). VeriTable's observation is that one
# joint traversal over the union of all N tables suffices: carry one
# propagated nexthop per table and compare the vector wherever a region
# bottoms out. The daemon's ``verify`` control command uses this to
# audit every tenant's OT ≡ FIB ≡ kernel agreement in a single pass.


class _JNode:
    __slots__ = ("prefix", "left", "right", "labels")

    def __init__(self, prefix: Prefix, table_count: int) -> None:
        self.prefix = prefix
        self.left: Optional[_JNode] = None
        self.right: Optional[_JNode] = None
        #: One optional label per joined table, index-aligned.
        self.labels: list[Optional[Nexthop]] = [None] * table_count


@dataclass(frozen=True)
class JointDivergence:
    """One region where an agreement group's tables disagree.

    ``labels`` is index-aligned with ``group``: every address in
    ``prefix`` resolves to ``labels[i]`` under table ``group[i]``.
    """

    group: tuple[int, ...]
    prefix: Prefix
    labels: tuple[Nexthop, ...]

    def __str__(self) -> str:
        parts = ", ".join(
            f"table[{index}]→{label}"
            for index, label in zip(self.group, self.labels)
        )
        return f"{self.prefix}: {parts}"


def _build_joint(
    tables: Sequence[Mapping[Prefix, Nexthop]], width: int
) -> _JNode:
    root = _JNode(Prefix.root(width), len(tables))
    for table_index, table in enumerate(tables):
        for prefix, nexthop in table.items():
            if prefix.width != width:
                raise ValueError(
                    f"table {table_index} holds a width-{prefix.width} "
                    f"prefix in a width-{width} joint walk"
                )
            node = root
            for bit_index in range(prefix.length):
                bit = prefix.bit(bit_index)
                nxt = node.right if bit else node.left
                if nxt is None:
                    nxt = _JNode(node.prefix.child(bit), len(tables))
                    if bit:
                        node.right = nxt
                    else:
                        node.left = nxt
                node = nxt
            node.labels[table_index] = nexthop
    return root


def _group_disagreements(
    effective: Sequence[Nexthop],
    groups: Sequence[tuple[int, ...]],
    prefix: Prefix,
) -> list[JointDivergence]:
    found: list[JointDivergence] = []
    for group in groups:
        first = effective[group[0]]
        if any(effective[index] != first for index in group[1:]):
            found.append(
                JointDivergence(
                    group, prefix, tuple(effective[index] for index in group)
                )
            )
    return found


def joint_divergences(
    tables: Sequence[Mapping[Prefix, Nexthop]],
    width: int = 32,
    groups: Optional[Sequence[Sequence[int]]] = None,
    limit: Optional[int] = None,
) -> list[JointDivergence]:
    """All regions where an agreement group disagrees, in ONE traversal.

    ``groups`` names which table indices must forward alike (default:
    every table agrees with every other). The walk builds the union
    trie of all ``tables`` once and carries the full propagated-nexthop
    vector, so the cost is O(total entries) regardless of how many
    groups are checked — this is the VeriTable economics: auditing N
    tables costs one walk, not N pairwise diffs. ``limit`` caps the
    result size (the walk stops early once reached).
    """
    if len(tables) == 0:
        return []
    if groups is None:
        normalized: list[tuple[int, ...]] = [tuple(range(len(tables)))]
    else:
        normalized = [tuple(group) for group in groups if len(group) > 1]
    for group in normalized:
        for index in group:
            if not 0 <= index < len(tables):
                raise ValueError(f"group index {index} out of range")
    if len(normalized) == 0:
        return []
    root = _build_joint(tables, width)
    divergences: list[JointDivergence] = []
    base: tuple[Nexthop, ...] = tuple([DROP] * len(tables))
    stack: list[tuple[_JNode, tuple[Nexthop, ...]]] = [(root, base)]
    while stack:
        if limit is not None and len(divergences) >= limit:
            break
        node, effective = stack.pop()
        if any(label is not None for label in node.labels):
            updated = list(effective)
            for index, label in enumerate(node.labels):
                if label is not None:
                    updated[index] = label
            effective = tuple(updated)
        if node.left is None and node.right is None:
            divergences.extend(
                _group_disagreements(effective, normalized, node.prefix)
            )
            continue
        for bit, child in ((0, node.left), (1, node.right)):
            if child is not None:
                stack.append((child, effective))
            else:
                divergences.extend(
                    _group_disagreements(
                        effective, normalized, node.prefix.child(bit)
                    )
                )
    if limit is not None and len(divergences) > limit:
        del divergences[limit:]
    return divergences


def jointly_equivalent(
    tables: Sequence[Mapping[Prefix, Nexthop]],
    width: int = 32,
    groups: Optional[Sequence[Sequence[int]]] = None,
) -> bool:
    """True when every agreement group forwards alike everywhere."""
    return len(joint_divergences(tables, width, groups, limit=1)) == 0
