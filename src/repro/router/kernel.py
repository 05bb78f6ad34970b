"""The simulated kernel FIB (the netlink target of zebra's downloads).

Backed by a plain dict by default; optionally by a real
:class:`~repro.fib.treebitmap.TreeBitmap` so experiments can watch a
hardware-representative structure absorb the download stream.
"""

from __future__ import annotations

from typing import Literal, Optional

from repro.core.downloads import DownloadKind, FibDownload
from repro.fib.treebitmap import TreeBitmap
from repro.net.nexthop import DROP, Nexthop
from repro.net.prefix import Prefix
from repro.obs.registry import NULL_COUNTER, NULL_GAUGE, Counter, Gauge, MetricsRegistry

Backing = Literal["dict", "treebitmap"]


class KernelFib:
    """Applies FIB downloads and serves lookups; counts every operation."""

    def __init__(
        self,
        width: int = 32,
        backing: Backing = "dict",
        initial_stride: int = 12,
        stride: int = 4,
    ) -> None:
        self.width = width
        self.backing = backing
        self._table: dict[Prefix, Nexthop] = {}
        self._tbm: Optional[TreeBitmap] = (
            TreeBitmap(width, initial_stride, stride)
            if backing == "treebitmap"
            else None
        )
        self.installs = 0
        self.uninstalls = 0
        self.failed_uninstalls = 0
        # Inert until bind_metrics(); the plain attributes above stay the
        # functional accounting (experiments and summary() read them).
        self._c_install: Counter = NULL_COUNTER
        self._c_uninstall: Counter = NULL_COUNTER
        self._c_failed: Counter = NULL_COUNTER
        self._g_size: Gauge = NULL_GAUGE

    def bind_metrics(self, registry: MetricsRegistry) -> None:
        """Mirror install/uninstall accounting into ``registry`` series."""
        self._c_install = registry.counter(
            "kernel_fib_ops_total", "kernel FIB operations", labels={"op": "install"}
        )
        self._c_uninstall = registry.counter(
            "kernel_fib_ops_total", "kernel FIB operations", labels={"op": "uninstall"}
        )
        self._c_failed = registry.counter(
            "kernel_fib_ops_total",
            "kernel FIB operations",
            labels={"op": "failed_uninstall"},
        )
        self._g_size = registry.gauge(
            "kernel_fib_size", "entries currently installed in the kernel FIB"
        )

    # -- download path -------------------------------------------------------

    def apply(self, download: FibDownload) -> None:
        if download.kind is DownloadKind.INSERT:
            assert download.nexthop is not None
            self._table[download.prefix] = download.nexthop
            if self._tbm is not None:
                self._tbm.insert(download.prefix, download.nexthop)
            self.installs += 1
            self._c_install.inc()
        else:
            existed = self._table.pop(download.prefix, None) is not None
            if existed and self._tbm is not None:
                self._tbm.delete(download.prefix)
            if existed:
                self.uninstalls += 1
                self._c_uninstall.inc()
            else:
                # Mirrors the kernel's ESRCH on deleting a missing route.
                self.failed_uninstalls += 1
                self._c_failed.inc()
        # Refreshed here, not only in apply_all: direct apply() callers
        # (the resilient channel delivers op by op) must never leave the
        # scraped size stale.
        self._g_size.set(float(len(self._table)))

    def apply_all(self, downloads: list[FibDownload]) -> None:
        for download in downloads:
            self.apply(download)

    # -- data path -------------------------------------------------------------

    def lookup(self, address: int) -> Nexthop:
        if self._tbm is not None:
            return self._tbm.lookup(address)
        best = DROP
        best_length = -1
        for prefix, nexthop in self._table.items():
            if prefix.length > best_length and prefix.contains_address(address):
                best = nexthop
                best_length = prefix.length
        return best

    # -- introspection -----------------------------------------------------------

    def table(self) -> dict[Prefix, Nexthop]:
        return dict(self._table)

    def __len__(self) -> int:
        return len(self._table)

    @property
    def operations(self) -> int:
        return self.installs + self.uninstalls + self.failed_uninstalls

    @property
    def tbm(self) -> Optional[TreeBitmap]:
        """The Tree Bitmap backing, when configured."""
        return self._tbm
