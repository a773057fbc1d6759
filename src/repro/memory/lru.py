"""The exact LRU behind every LRU cache of the storage and host path.

Four caches in the model are the same object at different units: the
SSD's DRAM page buffer the ISP samples from
(:class:`~repro.storage.pagebuffer.PageBuffer`), the OS page cache of
the mmap baseline (:class:`~repro.host.pagecache.OSPageCache`),
SmartSAGE's user-space scratchpad
(:class:`~repro.host.scratchpad.Scratchpad`) and the GIDS-style tier
policy ``lru`` (:class:`~repro.cache.policy.LRUPolicy`).  Each is an
:class:`ExactLRU` over integer keys with insert-on-miss; the
subclasses only convert their byte budgets into a key count.

Callers hand an :class:`ExactLRU` whole batches of keys, touched in
order by one :class:`~collections.OrderedDict` loop, through one of two
methods that leave the same residents, LRU order and counters:

* :meth:`ExactLRU.miss_count` returns only the number of misses.  The
  page buffer's ISP commands
  (:meth:`~repro.core.subgraph_generator.SubgraphGenerator.plan_span`)
  and the feature scratchpad
  (:class:`~repro.core.feature_engines.DirectIOFeatureEngine`) price
  misses by count, so they use it.
* :meth:`ExactLRU.hit_mask` returns a per-key hit mask, for callers
  that must know *which* keys missed: the edge-list scratchpad's hop
  reads (``_hop_misses`` of the direct-I/O sampling engine and
  :class:`~repro.host.direct_io.DirectIOReader`), which size each
  missing extent; the tier policy ``lru``, whose misses fall through
  to the next tier; and the mmap reader, which groups missing pages
  into fault-around windows.

The batches are de-duplicated (``np.unique`` page sets, frontier
targets, expanded extents) and usually evict, so a vectorized
eviction-free shortcut never answered here and was removed.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Tuple

import numpy as np

__all__ = ["ExactLRU"]


class ExactLRU:
    """Exact LRU of at most ``capacity`` integer keys, insert-on-miss."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._lru: "OrderedDict[int, None]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._lru)

    def __contains__(self, key: int) -> bool:
        return key in self._lru

    def hit_mask(self, keys: Iterable[int]) -> np.ndarray:
        """Touch ``keys`` in order; per-key hit mask.

        A miss inserts the key as most recent, evicting the least
        recent key once more than ``capacity`` are resident.
        """
        keys = np.asarray(keys).tolist()
        lru, capacity = self._lru, self.capacity
        move, evict = lru.move_to_end, lru.popitem
        size = len(lru)
        hit_at = []
        for i, k in enumerate(keys):
            if k in lru:
                move(k)
                hit_at.append(i)
            else:
                lru[k] = None
                if size < capacity:
                    size += 1
                else:
                    evict(False)
        mask = np.zeros(len(keys), dtype=bool)
        mask[hit_at] = True
        self.hits += len(hit_at)
        self.misses += len(keys) - len(hit_at)
        return mask

    def miss_count(self, keys: Iterable[int]) -> int:
        """Touch ``keys`` in order, as :meth:`hit_mask` does; the
        number of misses.

        Leaves the same residents, LRU order and counters as
        :meth:`hit_mask`, for callers that need only the count.
        """
        keys = np.asarray(keys).tolist()
        lru, capacity = self._lru, self.capacity
        move, evict = lru.move_to_end, lru.popitem
        size = len(lru)
        misses = 0
        for k in keys:
            if k in lru:
                move(k)
            else:
                lru[k] = None
                misses += 1
                if size < capacity:
                    size += 1
                else:
                    evict(False)
        self.hits += len(keys) - misses
        self.misses += misses
        return misses

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def residents(self) -> Tuple[int, ...]:
        """Resident keys, least to most recently used."""
        return tuple(self._lru)

    def clear(self) -> None:
        """Drop every resident key (the hit/miss counters stay)."""
        self._lru.clear()
