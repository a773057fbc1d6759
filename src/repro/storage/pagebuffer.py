"""The SSD's internal DRAM page buffer.

Flash pages read from the array are staged in device DRAM before being
DMA-ed to the host (Fig 8).  SmartSAGE's ISP samples *directly out of this
buffer*, which is the core of its data-movement win.  The buffer behaves
as an LRU cache of flash pages, so re-referenced pages (hub nodes!) can be
served without touching the flash array again.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Tuple

import numpy as np

from repro.errors import StorageError
from repro.memory.lru import lru_batch_access, lru_scalar_access

__all__ = ["PageBuffer"]


class PageBuffer:
    """LRU cache of flash pages held in device DRAM."""

    def __init__(self, capacity_pages: int):
        if capacity_pages < 1:
            raise StorageError("page buffer needs at least one page")
        self.capacity_pages = capacity_pages
        self._lru: "OrderedDict[int, None]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._lru)

    def __contains__(self, page: int) -> bool:
        return page in self._lru

    def access(self, page: int) -> bool:
        """Touch one page; inserts on miss, evicting LRU. True on hit.

        Scalar reference path; hot paths should use
        :meth:`access_batch` / :meth:`hit_mask` instead.
        """
        if page in self._lru:
            self._lru.move_to_end(page)
            self.hits += 1
            return True
        self.misses += 1
        self._lru[page] = None
        if len(self._lru) > self.capacity_pages:
            self._lru.popitem(last=False)
        return False

    def access_batch(self, pages: Iterable[int]) -> Tuple[int, int]:
        """Touch many pages; returns (hits, misses) for the batch."""
        if isinstance(pages, np.ndarray):
            pages = np.asarray(pages, dtype=np.int64)
        else:
            pages = np.fromiter(pages, dtype=np.int64)
        mask = self.hit_mask(pages)
        hits = int(mask.sum())
        return hits, int(mask.size) - hits

    def hit_mask(self, pages: np.ndarray) -> np.ndarray:
        """Per-page hit/miss mask for a batch (updates LRU state)."""
        out = lru_batch_access(self._lru, self.capacity_pages, pages)
        if out is None:
            out = lru_scalar_access(self._lru, self.capacity_pages, pages)
        hits = int(out.sum())
        self.hits += hits
        self.misses += int(out.size) - hits
        return out

    def hit_mask_scalar(self, pages: np.ndarray) -> np.ndarray:
        """Reference implementation of :meth:`hit_mask` (parity tests)."""
        out = lru_scalar_access(self._lru, self.capacity_pages, pages)
        hits = int(out.sum())
        self.hits += hits
        self.misses += int(out.size) - hits
        return out

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        self._lru.clear()
