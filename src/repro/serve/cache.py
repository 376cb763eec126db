"""The serve layer's tier-1 cache: a fingerprint-keyed, thread-safe LRU.

One :class:`CacheEntry` is one finished evaluation: the flat result row
(the :class:`repro.experiments.PointSummary` fields), its canonical
digest, which tier produced it, and the run-manifest reference of the
run that computed it.  Entries are immutable; the cache only ever swaps
whole entries, so readers never observe a partially-updated value.

The LRU sits in front of the shared :class:`~repro.experiments.ExperimentStore`
(tier 2) and the batch kernel (tier 3, misses only) — see
:mod:`repro.serve.server` for the composition and DESIGN.md section 12
for the hierarchy's invariants.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Mapping, Optional

__all__ = ["CacheEntry", "LRUCache"]


@dataclass(frozen=True)
class CacheEntry:
    """One cached evaluation result (immutable)."""

    #: the flat PointSummary-shaped result row
    row: Mapping
    #: canonical per-entry digest (:func:`repro.serve.protocol.point_digest`)
    digest: str
    #: which tier produced the value: ``store`` or ``computed``
    tier: str
    #: run-manifest path of the batch that computed the entry (``None``
    #: when manifests are disabled or the value came off the store tier)
    manifest: Optional[str] = None
    #: the computing batch's metadata, e.g. ``{"id": 3, "points": 2}``
    batch: Optional[dict] = field(default=None)


class LRUCache:
    """A bounded, thread-safe, fingerprint-keyed LRU of cache entries.

    ``get`` promotes to most-recently-used; ``put`` evicts the least
    recently used entry beyond ``capacity``.  Hit/miss/eviction tallies
    are kept internally (lock-protected, exact) so the server's stats
    do not depend on a tracer being installed.
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[str, CacheEntry] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: str) -> Optional[CacheEntry]:
        """The entry under ``key`` (promoted), or ``None`` on a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: str, entry: CacheEntry) -> None:
        """Insert/replace ``key`` as most-recently-used, evicting beyond capacity."""
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def invalidate(self, key: str) -> bool:
        """Drop ``key`` if present; returns whether an entry was removed."""
        with self._lock:
            return self._entries.pop(key, None) is not None

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def stats(self) -> dict:
        """JSON-ready tallies (size, capacity, hits, misses, evictions)."""
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
