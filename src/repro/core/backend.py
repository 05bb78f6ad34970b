"""Trie backend selection: which OT/AT structure a manager builds.

Two backends exist, and both are :class:`~repro.core.trie.FibTrie`
objects:

- ``single`` — :class:`~repro.core.trie.FibTrie`, the reference trie,
  one pointer-chasing structure over the whole prefix space;
- ``packed`` — :class:`~repro.core.packed.PackedBackend`, the reference
  trie as a shadow plus level-compressed, array-packed OT/AT lookup
  planes (flat stride tables, no per-node objects on the LPM hot path).

Selection is by name through :func:`make_backend`; the default comes
from the ``SMALTA_BACKEND`` environment variable so the whole tier-1
suite can be replayed against the packed backend unchanged (the CI
matrix leg does exactly that). The differential harness
(``tests/core/test_batch_differential.py``) holds the two to
byte-identical download logs.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.core.packed import PackedBackend
from repro.core.trie import FibTrie
from repro.obs.observability import Observability

#: Environment variable naming the default backend for new managers.
BACKEND_ENV_VAR = "SMALTA_BACKEND"
SINGLE_BACKEND = "single"
PACKED_BACKEND = "packed"
#: Every selectable backend name, sorted.
BACKEND_NAMES = (PACKED_BACKEND, SINGLE_BACKEND)


def resolve_backend_name(name: Optional[str] = None) -> str:
    """Normalize an explicit backend name, or read the env default."""
    raw = name if name is not None else os.environ.get(BACKEND_ENV_VAR, "")
    resolved = raw.strip().lower() or SINGLE_BACKEND
    if resolved not in BACKEND_NAMES:
        known = ", ".join(BACKEND_NAMES)
        raise ValueError(f"unknown trie backend {resolved!r} (known: {known})")
    return resolved


def make_backend(
    name: Optional[str] = None,
    width: int = 32,
    obs: Optional[Observability] = None,
) -> FibTrie:
    """Construct a trie backend by name (None → ``$SMALTA_BACKEND``)."""
    if resolve_backend_name(name) == PACKED_BACKEND:
        return PackedBackend(width, obs=obs)
    return FibTrie(width)


def backend_name_of(backend: FibTrie) -> str:
    """The selection name a live backend instance answers to."""
    if isinstance(backend, PackedBackend):
        return PACKED_BACKEND
    return SINGLE_BACKEND
