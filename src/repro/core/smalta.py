"""The SMALTA incremental update algorithms (Section 3, Algorithms 1–3).

:class:`SmaltaState` owns the OT/AT union trie and implements:

- ``insert(N, Q)`` — Algorithm 1,
- ``delete(N)``   — Algorithm 2,
- the shared repair procedure ``_reclaim(E, alpha, beta)`` — Algorithm 3,
- ``apply_batch(ops)`` — a burst of updates coalesced to their per-prefix
  net effect before Algorithms 1–2 run, with one download drain for the
  whole burst,
- ``snapshot()``  — ORTC redone on what changed since the last snapshot,
  plus the FIB-download delta,
- ``load(N, Q)``  — OT-only population used before End-of-RIB.

Null-nexthop convention: the paper's ε does double duty (a node absent
from a table, and unrouted address space). Here a node absent from a
table has label ``None``, while unrouted space is the value ``DROP``.
Every *value* comparison the pseudocode writes against ε (``d_A(I)``,
``d_O'(P)`` for nil I/P) uses DROP; every *labeled-at-all* test
(``d_A(N) = ε``) uses ``None``. Assigning the value DROP where DROP
already propagates stores no label — semantically identical, and closer
to the paper's model where assigning ε removes the node.

Every AT label mutation is observed and coalesced into FIB downloads,
which :class:`~repro.core.manager.SmaltaManager` forwards to the FIB.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.downloads import FibDownload, diff_tables
from repro.core.ortc import CLEAN
from repro.core.trie import FibTrie, Node
from repro.net.nexthop import DROP, Nexthop
from repro.net.prefix import Prefix
from repro.obs.observability import Observability
from repro.verify.markers import must_consume


def width_mismatch(prefix: Prefix, width: int) -> ValueError:
    """The error for a prefix of another address width than the trie's.

    Every entry point that writes the trie checks the width before its
    first write (the manager's loading and pass-through paths too): a
    narrower prefix would land misrouted (width-6 ``101/3`` as
    ``0.0.0.0/3`` in a width-32 trie), and a wider one would fail
    mid-walk with part of a burst applied.
    """
    return ValueError(
        f"{prefix} is {prefix.width} bits wide; this table is {width}"
    )


class SmaltaState:
    """OT + AT with incremental aggregation, the paper's core machinery."""

    def __init__(
        self,
        width: int = 32,
        compact: bool = True,
        obs: Optional[Observability] = None,
        backend: Optional[FibTrie] = None,
    ) -> None:
        #: The OT/AT structure: the reference trie or any backend from
        #: :mod:`repro.core.backend` (all are ``FibTrie`` objects). The
        #: differential suite holds their download logs byte-identical.
        self.trie = backend if backend is not None else FibTrie(width)
        self.trie.at_observer = self._on_at_change
        self._events: list[tuple[Prefix, Optional[Nexthop], Optional[Nexthop]]] = []
        self._capture = True
        #: With compact=False, value assignments follow the pseudocode
        #: literally (no redundant-label elision); the AT then drifts from
        #: optimal noticeably faster — the ablation benchmark measures it.
        self.compact = compact
        #: Standalone states default to the null sink; SmaltaManager
        #: threads its live Observability through here.
        self.obs = obs if obs is not None else Observability.null()
        registry = self.obs.registry
        self._c_inserts = registry.counter(
            "smalta_inserts_total", "Algorithm 1 (Insert) runs"
        )
        self._c_deletes = registry.counter(
            "smalta_deletes_total", "Algorithm 2 (Delete) runs"
        )
        self._c_reclaims = registry.counter(
            "smalta_reclaim_calls_total", "Algorithm 3 (reclaim) invocations"
        )
        self._c_label_changes = registry.counter(
            "smalta_at_label_changes_total", "AT label mutations captured"
        )
        self._c_batches = registry.counter(
            "smalta_batches_total", "apply_batch bursts incorporated"
        )
        self._c_batch_updates = registry.counter(
            "smalta_batch_updates_total", "updates entering apply_batch"
        )
        self._c_batch_net = registry.counter(
            "smalta_batch_net_ops_total", "net per-prefix ops after coalescing"
        )
        self._c_batch_skipped = registry.counter(
            "smalta_batch_skipped_total",
            "net withdraws skipped (prefix absent from the OT)",
        )
        self._c_snapshots = registry.counter(
            "smalta_snapshots_total", "ORTC snapshot passes"
        )
        self._g_ot_size = registry.gauge(
            "smalta_ot_size", "Original Tree entries"
        )
        self._g_at_size = registry.gauge(
            "smalta_at_size", "Aggregated Tree entries"
        )

    # -- label-change capture -------------------------------------------

    def _on_at_change(
        self, prefix: Prefix, old: Optional[Nexthop], new: Optional[Nexthop]
    ) -> None:
        if self._capture:
            self._events.append((prefix, old, new))
            self._c_label_changes.inc()

    def _drain_downloads(self) -> list[FibDownload]:
        """Coalesce the AT label events of one update into FIB downloads.

        A prefix touched several times within one update contributes at
        most one download, determined by its initial vs final label
        (matching what zebra would push to the kernel: an insert both
        adds and overwrites; a delete removes).
        """
        first_old: dict[Prefix, Optional[Nexthop]] = {}
        last_new: dict[Prefix, Optional[Nexthop]] = {}
        for prefix, old, new in self._events:
            if prefix not in first_old:
                first_old[prefix] = old
            last_new[prefix] = new
        self._events.clear()
        downloads: list[FibDownload] = []
        for prefix, old in sorted(first_old.items()):
            new = last_new[prefix]
            if old == new:
                continue
            if new is None:
                downloads.append(FibDownload.delete(prefix))
            else:
                downloads.append(FibDownload.insert(prefix, new))
        self._g_ot_size.set(float(self.trie.ot_size))
        self._g_at_size.set(float(self.trie.at_size))
        return downloads

    # -- value helpers ----------------------------------------------------

    @staticmethod
    def _value(node: Optional[Node], attr: str) -> Nexthop:
        """The pseudocode's d(·) for possibly-nil nodes: DROP when nil."""
        if node is None:
            return DROP
        label = getattr(node, attr)
        return label if label is not None else DROP

    def _assign_at(
        self, prefix: Prefix, value: Nexthop, boundary: Optional[Node] = None
    ) -> None:
        """Assign an AT *value*, eliding labels the context already provides.

        # paper: assigning ε in the pseudocode removes the node; here the
        # DROP value materializes as an explicit null-route entry only when
        # a real nexthop would otherwise propagate over the space.
        # Additionally, a label equal to the nexthop its ancestors already
        # propagate is elided instead of stored — that is what keeps the
        # AT's drift from optimal small (Figure 8); a literal reading of
        # the pseudocode re-labels deaggregates even when redundant.
        #
        # Elision is only sound when the label *providing* the redundant
        # context sits at-or-above ``boundary`` (the node's preimage): a
        # provider strictly between the preimage and the node would keep
        # covering the space with a stale value after the preimage's later
        # deletion, with the deaggregate registry no longer tracking it.
        # DROP is the exception — unrouted space never has a preimage to
        # delete, and every mutation reaching it walks through reclaim.
        """
        provider = self.trie.psi_a(prefix)
        context = self._value(provider, "d_a")
        if value == context and (
            value == DROP
            or (
                self.compact
                and provider is not None
                and boundary is not None
                and provider.prefix.length <= boundary.prefix.length
            )
        ):
            self.trie.set_at(prefix, None)
        else:
            self.trie.set_at(prefix, value)

    # -- public update API -------------------------------------------------

    def load(self, prefix: Prefix, nexthop: Nexthop) -> None:
        """OT-only insert (router startup before End-of-RIB, Section 2)."""
        if nexthop == DROP:
            raise ValueError("the Original Tree never holds DROP entries")
        if prefix.width != self.trie.width:
            raise width_mismatch(prefix, self.trie.width)
        self.trie.set_ot(prefix, nexthop)

    @must_consume
    def insert(self, prefix: Prefix, nexthop: Nexthop) -> list[FibDownload]:
        """Algorithm 1 — Insert(N, Q): add or change a prefix's nexthop."""
        if prefix.width != self.trie.width:
            raise width_mismatch(prefix, self.trie.width)
        self._insert(prefix, nexthop)
        return self._drain_downloads()

    def _insert(self, prefix: Prefix, nexthop: Nexthop) -> None:
        """Algorithm 1 without the download drain (shared with batching)."""
        self._c_inserts.inc()
        if nexthop == DROP:
            raise ValueError("cannot insert the null nexthop; use delete")
        trie = self.trie
        node_n = trie.ensure(prefix)
        d_o_n = node_n.d_o
        if d_o_n == nexthop:
            # Re-announcement with an unchanged nexthop: semantically a
            # no-op, no AT repair required. # paper: not spelled out; BGP
            # duplicates are common and must not churn the AT.
            trie.prune(node_n)
            return

        # Values indexed O (before the update):
        p_node = trie.psi_eq_o(prefix)  # P := Ψ=_O(N); may be n(N) itself
        i_node = trie.psi_a(prefix)  # I := Ψ_A(N)
        d_a_i = self._value(i_node, "d_a")
        d_a_n = node_n.d_a
        d_o_p = self._value(p_node, "d_o")  # used at line 22 as d_O(P)

        trie.set_pi(node_n, None)  # pi(N) := nil (drops N from P's deaggregates)
        trie.set_ot(prefix, nexthop)  # OT becomes O'; reclaim consults d_O'
        node_n = trie.ensure(prefix)

        if d_a_n is None:
            if d_a_i != nexthop:
                x = d_a_i
                trie.set_at_node(node_n, nexthop)
                self._reclaim(node_n, nexthop, x)
        elif d_o_n is None or d_o_n == d_a_n:
            x = d_a_n
            if d_a_i == nexthop:
                trie.set_at_node(node_n, None)
            else:
                trie.set_at_node(node_n, nexthop)
            self._reclaim(trie.ensure(prefix), nexthop, x)
        # else: n(N) is a pure aggregate in the AT; only its deaggregates
        # cover the space where N is the OT longest match (handled below).

        # Lines 19-23: visit the deaggregates of P at or below n(N). A nil
        # P stands for the unrouted context; its deaggregates are the
        # explicit DROP entries, registered on the nil_node sentinel.
        deagg_source = p_node if p_node is not None else trie.nil_node
        node_n = trie.ensure(prefix)
        for deagg in trie.deaggregates_under(deagg_source, prefix):
            deagg_prefix = deagg.prefix
            self._assign_at(deagg_prefix, nexthop, boundary=node_n)
            node_e = trie.find(deagg_prefix)
            if node_e is None:
                continue
            if node_e.d_a is not None:
                trie.set_pi(node_e, node_n)
            self._reclaim(node_e, nexthop, d_o_p)
            trie.prune(node_e)
        trie.prune(trie.ensure(prefix))

    @must_consume
    def delete(self, prefix: Prefix) -> list[FibDownload]:
        """Algorithm 2 — Delete(N): remove a prefix (requires d_O(N) ≠ ε)."""
        if prefix.width != self.trie.width:
            raise width_mismatch(prefix, self.trie.width)
        self._delete(prefix)
        return self._drain_downloads()

    def _delete(self, prefix: Prefix) -> None:
        """Algorithm 2 without the download drain (shared with batching)."""
        self._c_deletes.inc()
        trie = self.trie
        node_n = trie.find(prefix)
        if node_n is None or node_n.d_o is None:
            raise KeyError(f"{prefix} is not in the Original Tree")
        d_o_n = node_n.d_o  # d_O(N), before the update
        d_a_n = node_n.d_a
        deaggs_of_n = trie.deaggregates_of(node_n)

        trie.set_ot(prefix, None)  # OT becomes O'
        p_node = trie.psi_o(prefix)  # P := Ψ_O'(N)
        i_node = trie.psi_a(prefix)  # I := Ψ_A(N)
        d_a_i = self._value(i_node, "d_a")
        d_o_p = self._value(p_node, "d_o")  # d_O'(P)

        n_agg = False
        x: Nexthop = DROP
        r: Nexthop = DROP
        if d_a_n is not None:
            if d_a_n == d_o_n:
                x = d_a_n
                r = d_a_i
                trie.set_at(prefix, None)
            else:
                n_agg = True  # n(N) is a pure aggregate
        else:
            x = d_a_i  # N had been aggregated up into I

        # The preimage a node reverting to P's nexthop should point at:
        # the covering OT node, or the unrouted sentinel when P is nil.
        p_preimage = p_node if p_node is not None else trie.nil_node

        if not n_agg:
            if d_o_p != d_a_i:
                self._assign_at(prefix, d_o_p, boundary=p_node)
                r = d_o_p
                node_after = trie.find(prefix)
                if node_after is not None and node_after.d_a is not None:
                    trie.set_pi(node_after, p_preimage)
            elif i_node is not None and (
                p_node is None or p_node.prefix.length < i_node.prefix.length
            ):
                # P < I (a nil P is the virtual context above the root, so
                # it is a proper prefix of any labeled I).
                r = d_o_p
                trie.set_pi(i_node, p_preimage)
            if d_o_p != x:
                anchor = trie.ensure(prefix)
                self._reclaim(anchor, r, x)
                trie.prune(anchor)

        # Lines 22-25: the deaggregates of N revert to P's nexthop.
        for deagg in deaggs_of_n:
            self._assign_at(deagg.prefix, d_o_p, boundary=p_node)
            node_e = trie.find(deagg.prefix)
            if node_e is None:
                continue
            if node_e.d_a is not None:
                trie.set_pi(node_e, p_preimage)
            self._reclaim(node_e, d_o_p, d_o_n)
            trie.prune(node_e)

    @must_consume
    def apply_batch(
        self, ops: Iterable[tuple[Prefix, Optional[Nexthop]]]
    ) -> list[FibDownload]:
        """Incorporate a burst of updates on their per-prefix *net* effect.

        ``ops`` is a sequence of ``(prefix, nexthop)`` pairs where a None
        nexthop means withdraw. Coalescing semantics (FAQS-style burst
        handling):

        - the **last** operation per prefix wins — a flap that announces,
          withdraws, and re-announces within one burst runs Algorithms
          1–2 once, on the final state;
        - a net operation that matches the current OT (re-announce of the
          live nexthop, or a withdraw of a prefix the OT does not hold —
          e.g. an announce+withdraw pair born and cancelled inside the
          burst) is skipped entirely, like zebra's duplicate tolerance;
        - AT label events accumulate across the whole burst and are
          drained **once**, so an insert whose downloads a later delete
          reverts collapses to no download at all.

        This is semantically equivalent to applying the burst one update
        at a time (the withdraw-of-absent case matching the manager's
        KeyError tolerance): each skipped operation is a sequential
        no-op or a cancelling pair, and Algorithms 1–2 only depend on the
        OT/AT state, not on the update history. The exact AT labels may
        differ from the sequential ones (SMALTA's AT is path-dependent),
        but OT ≡ AT holds on both sides — the differential test suite
        (``tests/core/test_batch_differential.py``) discharges this.
        """
        net: dict[Prefix, Optional[Nexthop]] = {}
        total_ops = 0
        width = self.trie.width
        for prefix, nexthop in ops:
            if prefix.width != width:
                raise width_mismatch(prefix, width)
            net[prefix] = nexthop
            total_ops += 1
        skipped = 0
        for prefix, nexthop in net.items():
            if nexthop is None:
                node = self.trie.find(prefix)
                if node is None or node.d_o is None:
                    skipped += 1
                    continue  # net withdraw of a prefix the OT never held
                self._delete(prefix)
            else:
                self._insert(prefix, nexthop)
        self._c_batches.inc()
        self._c_batch_updates.inc(total_ops)
        self._c_batch_net.inc(len(net))
        self._c_batch_skipped.inc(skipped)
        return self._drain_downloads()

    # -- Algorithm 3 ------------------------------------------------------

    def _reclaim(self, node_e: Node, alpha: Nexthop, beta: Nexthop) -> None:
        """reclaim(E, α, β): after the nexthop present at E changed from β
        to α, remove descendants whose explicit α labels became redundant
        and restore OT prefixes that had been aggregated up into β."""
        self._c_reclaims.inc()
        trie = self.trie
        stack = list(node_e.children())
        while stack:
            node = stack.pop()
            d_a = node.d_a
            d_o = node.d_o  # d_O'(D): the post-update OT label
            if d_a is None and d_o is None:
                stack.extend(node.children())
            elif d_a == alpha or d_o == alpha:
                if d_a == alpha:
                    trie.set_at_node(node, None)  # redundant: α propagates now
                elif d_a is None:  # d_O'(D) = α, covered by deaggregates below
                    stack.extend(node.children())
                # an explicit non-α label shields its subtree: stop
            elif d_o == beta and d_a is None:
                trie.set_at_node(node, beta)  # restore the aggregated prefix
            elif d_a is None:  # d_O'(D) ∉ {α, β}: keep looking deeper
                stack.extend(node.children())
            # else: explicit label unrelated to α/β shields: stop

    # -- snapshot -----------------------------------------------------------

    @must_consume
    def snapshot(self, count: bool = True) -> list[FibDownload]:
        """snapshot(OT): make the AT optimal again via ORTC (Section 2.1).

        Returns the FIB-download delta between the pre- and post-snapshot
        ATs using the paper's Graceful-Restart accounting (a changed
        nexthop is a Delete followed by an Insert).

        Only the region the trie's writers marked since the last snapshot
        is redone: :meth:`~repro.core.trie.FibTrie.ortc_table` reruns
        ORTC passes 2 and 3 there and returns the region's new labels,
        :meth:`_install` writes the labels and preimage pointers that
        differ, and the delta is ``diff_tables`` over the region's old
        and new labels. Everywhere else the AT and its pointers already
        are what a full rebuild would produce. The End-of-RIB snapshot
        takes the same path with every node marked by the loading.

        ``count=False`` suppresses the ``smalta_snapshots_total``
        increment — used by the runtime toggle, which accounts its
        full-table swap as one snapshot-class event of its own.
        """
        trie = self.trie
        if count:
            self._c_snapshots.inc()
        with self.obs.span(
            "smalta_ortc", "ORTC rebuild inside snapshot(OT)"
        ):
            new_labels = trie.ortc_table()
        self._capture = False
        try:
            old_labels = self._install()
        finally:
            self._capture = True
            self._events.clear()
        downloads = diff_tables(old_labels, new_labels)
        self._g_ot_size.set(float(trie.ot_size))
        self._g_at_size.set(float(trie.at_size))
        return downloads

    def rebuild(self, count: bool = True) -> int:
        """Run :meth:`snapshot` and *deliberately* discard the delta.

        The consuming wrapper for callers that only want the rebuilt AT
        (the out-of-band toggle path, the timing experiments): the drop
        is explicit in the API instead of a bare unused return value
        (flow rule REPRO008). Returns the size of the discarded burst.
        """
        return len(self.snapshot(count=count))

    def _install(self) -> dict[Prefix, Nexthop]:
        """Write ORTC's choices into the marked region and clear its marks.

        Walks the marked nodes from the root in prefix order. Each gets
        the label pass 3 chose for it (its choice, unless that equals the
        choice it inherits) and each missing half pass 3 labelled becomes
        a node. Then its preimage pointer is set by the deaggregate rule:
        an AT node that is not an OT entry points at the unrouted
        sentinel when its label is DROP, else at its nearest enclosing OT
        entry when that entry carries the same nexthop, else nowhere.
        Only labels and pointers that differ are written. Returns the
        region's old labels, in prefix order.
        """
        trie = self.trie
        root = trie.root
        old: dict[Prefix, Nexthop] = {}
        if not root.dirty:
            return old
        nil_node = trie.nil_node
        singleton = trie.interner.singleton
        # Pre-order frames: (node, parent's choice, inherited label,
        # nearest enclosing OT entry).
        stack: list[tuple[Node, Nexthop, Nexthop, Optional[Node]]] = [
            (root, DROP, DROP, None)
        ]
        while stack:
            node, assigned, inherited, nearest_ot = stack.pop()
            d_a = node.d_a
            if d_a is not None:
                old[node.prefix] = d_a
            choice = node.choice
            assert choice is not None, "pass 3 visits every marked node"
            label = choice if choice != assigned else None
            if d_a != label:
                trie.set_at_node(node, label)
                if node.parent is None and node is not root:
                    continue  # a leaf that lost its last label was pruned
            d_o = node.d_o
            preimage: Optional[Node] = None
            if label is not None and d_o is None:
                if label == DROP:
                    preimage = nil_node
                elif nearest_ot is not None and nearest_ot.d_o == label:
                    preimage = nearest_ot
            if node.pi is not preimage:
                trie.set_pi(node, preimage)
            here = node if d_o is not None else nearest_ot
            eff = d_o if d_o is not None else inherited
            left = node.left
            right = node.right
            if (left is not None or right is not None) and eff != choice:
                # Pass 3 labelled the missing half: it resolves to the
                # inherited label, whose owner is its preimage.
                missing_pi = nil_node if eff == DROP else here
                for bit, child in ((0, left), (1, right)):
                    if child is None:
                        fresh = trie.ensure(node.prefix.child(bit))
                        trie.set_at_node(fresh, eff)
                        trie.set_pi(fresh, missing_pi)
                        fresh.nhset = singleton(eff)
                        fresh.choice = eff
                        fresh.dirty = CLEAN
            node.dirty = CLEAN
            if right is not None and right.dirty:
                stack.append((right, choice, eff, here))
            if left is not None and left.dirty:
                stack.append((left, choice, eff, here))
        return old

    # -- introspection ------------------------------------------------------

    @property
    def ot_size(self) -> int:
        return self.trie.ot_size

    @property
    def at_size(self) -> int:
        return self.trie.at_size

    def ot_table(self) -> dict[Prefix, Nexthop]:
        return self.trie.ot_table()

    def at_table(self) -> dict[Prefix, Nexthop]:
        return self.trie.at_table()

    def verify(self) -> None:
        """Assert OT ≡ AT (TaCo) and the structural invariants; tests only.

        The full audit (structured :class:`~repro.verify.invariants.Violation`
        reporting, post-snapshot minimality, reference-table comparison)
        lives in :func:`repro.verify.invariants.audit_state`; this is the
        raise-on-anything convenience the test suite calls.
        """
        from repro.verify.invariants import audit_state

        violations = audit_state(self)
        if violations:
            raise AssertionError("; ".join(str(v) for v in violations))
