"""The OS page cache: an LRU of 4 KiB pages in host DRAM.

The baseline SSD-centric system (Fig 3b) reads the graph through mmap, so
every access goes through this cache.  The paper's point is that neighbor
sampling's access stream has so little locality that the cache's hit rate
stays low while its maintenance costs (faults, lock) are paid on every
miss.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.memory.lru import ExactLRU

__all__ = ["OSPageCache"]


class OSPageCache(ExactLRU):
    """Exact-LRU page cache over page IDs (LBA-sized pages)."""

    def __init__(self, capacity_bytes: int, page_bytes: int = 4096):
        if page_bytes <= 0:
            raise ConfigError("page_bytes must be positive")
        super().__init__(max(1, capacity_bytes // page_bytes))
