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

Callers hand whole batches of keys to :meth:`ExactLRU.hit_mask`, which
touches them in order with one :class:`~collections.OrderedDict` loop.
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
        lru, capacity = self._lru, self.capacity
        move, evict = lru.move_to_end, lru.popitem
        out = []
        for k in np.asarray(keys).tolist():
            if k in lru:
                move(k)
                out.append(True)
            else:
                lru[k] = None
                if len(lru) > capacity:
                    evict(False)
                out.append(False)
        mask = np.array(out, dtype=bool)
        hits = int(mask.sum())
        self.hits += hits
        self.misses += int(mask.size) - hits
        return mask

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
