"""The SSD's internal DRAM page buffer.

Flash pages read from the array are staged in device DRAM before being
DMA-ed to the host (Fig 8).  SmartSAGE's ISP samples *directly out of this
buffer*, which is the core of its data-movement win.  The buffer behaves
as an LRU cache of flash pages, so re-referenced pages (hub nodes!) can be
served without touching the flash array again.
"""

from __future__ import annotations

from repro.errors import StorageError
from repro.memory.lru import ExactLRU

__all__ = ["PageBuffer"]


class PageBuffer(ExactLRU):
    """LRU cache of flash pages held in device DRAM."""

    def __init__(self, capacity_pages: int):
        if capacity_pages < 1:
            raise StorageError("page buffer needs at least one page")
        super().__init__(capacity_pages)
