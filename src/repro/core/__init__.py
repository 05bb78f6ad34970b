"""The paper's primary contribution: ORTC snapshots + SMALTA incremental updates.

Public surface:

- :class:`repro.core.trie.FibTrie` — the dual-labeled union tree holding
  the Original Tree (OT) and Aggregated Tree (AT) together.
- :func:`repro.core.ortc.ortc` — optimal one-shot aggregation (Draves et al.).
- :class:`repro.core.smalta.SmaltaState` — Algorithms 1–3 (Insert/Delete/reclaim).
- :class:`repro.core.manager.SmaltaManager` — the deployable Figure-1 layer:
  update stream in, FIB downloads out, snapshot scheduling.
- :func:`repro.core.equivalence.semantically_equivalent` — the TaCo check.
"""

from repro.core.advisor import Advice, advise, calibrate
from repro.core.downloads import DownloadKind, DownloadLog, FibDownload
from repro.core.equivalence import (
    divergent_regions,
    equivalence_counterexample,
    semantically_equivalent,
)
from repro.core.manager import SmaltaManager
from repro.core.outofband import OutOfBandManager
from repro.core.optimal import optimal_table_size
from repro.core.ortc import ortc
from repro.core.policy import (
    CombinedPolicy,
    GrowthSnapshotPolicy,
    ManualSnapshotPolicy,
    PeriodicUpdateCountPolicy,
    SnapshotPolicy,
    WallClockPolicy,
)
from repro.core.smalta import SmaltaState
from repro.core.trie import FibTrie, Node

__all__ = [
    "Advice",
    "advise",
    "calibrate",
    "CombinedPolicy",
    "DownloadKind",
    "DownloadLog",
    "FibDownload",
    "FibTrie",
    "GrowthSnapshotPolicy",
    "ManualSnapshotPolicy",
    "Node",
    "OutOfBandManager",
    "PeriodicUpdateCountPolicy",
    "SmaltaManager",
    "SmaltaState",
    "SnapshotPolicy",
    "WallClockPolicy",
    "divergent_regions",
    "equivalence_counterexample",
    "optimal_table_size",
    "ortc",
    "semantically_equivalent",
]
