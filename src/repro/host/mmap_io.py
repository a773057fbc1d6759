"""The baseline mmap + OS-page-cache I/O path (Fig 3b, Fig 12 left).

Pages of a target node's edge-list extent are demand-faulted.  Linux
fault-around is modeled: one *major* fault brings in a window of up to
``fault_around_pages`` missing pages with a single device read, and the
windowed pages are mapped eagerly; pages already resident in the page
cache cost a minor lookup.  For single-page extents (low-degree graphs)
this degenerates to the classic one-fault-one-block-read behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.segments import expand_extents  # noqa: F401  (re-export,
#   the historical home of the extent expander)
from repro.host.pagecache import OSPageCache
from repro.host.syscall import HostSoftware
from repro.storage.ssd import SSDevice

__all__ = [
    "MmapOutcome",
    "MmapReader",
    "expand_extents",
    "fault_around_windows",
]


def fault_around_windows(
    misses_per_extent: np.ndarray, window: int
) -> np.ndarray:
    """Fault-around window sizes per extent, fully vectorized.

    Each extent's ``m`` missing pages are served by ``ceil(m / window)``
    major faults: ``m // window`` full windows followed by one partial
    window of ``m % window`` pages.  The ceil-div arithmetic emits the
    same window stream as the per-extent loop it replaced (kept in
    :mod:`repro.perf.reference`), bit for bit -- full windows first, the
    remainder last within each extent.
    """
    m = np.asarray(misses_per_extent, dtype=np.int64)
    m = m[m > 0]
    if m.size == 0:
        return np.empty(0, dtype=np.int64)
    rem = m % window
    n_windows = m // window + (rem > 0)
    out = np.full(int(n_windows.sum()), window, dtype=np.int64)
    last = np.cumsum(n_windows) - 1
    partial = rem > 0
    out[last[partial]] = rem[partial]
    return out


@dataclass(frozen=True)
class MmapOutcome:
    """Cost breakdown of a batch of mmap extent reads."""

    elapsed_s: float
    pages_touched: int
    major_faults: int        # device reads (one per fault-around window)
    pages_missed: int        # pages brought in from the SSD
    cache_hits: int          # pages already resident (minor lookups)
    bytes_from_ssd: int

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.pages_touched if self.pages_touched else 0.0


class MmapReader:
    """Analytic cost model of memory-mapped reads over the page cache."""

    def __init__(
        self,
        ssd: SSDevice,
        page_cache: OSPageCache,
        sw: HostSoftware,
        fault_around_pages: int = 4,
    ):
        self.ssd = ssd
        self.page_cache = page_cache
        self.sw = sw
        self.fault_around_pages = max(1, fault_around_pages)
        self.lba_bytes = ssd.hw.ssd.lba_bytes

    def plan_extents(self, first_lbas: np.ndarray, lba_counts: np.ndarray):
        """Classify pages and group misses into fault-around windows.

        Returns ``(hits, window_sizes)`` where ``window_sizes`` holds the
        number of missing pages served by each major fault.
        """
        first_lbas = np.asarray(first_lbas, dtype=np.int64)
        lba_counts = np.asarray(lba_counts, dtype=np.int64)
        pages = expand_extents(first_lbas, lba_counts)
        if pages.size == 0:
            return 0, np.empty(0, dtype=np.int64)
        mask = self.page_cache.hit_mask(pages)
        hits = int(mask.sum())
        nonzero = lba_counts[lba_counts > 0]
        if nonzero.size == 0:
            return hits, np.empty(0, dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(nonzero)[:-1]])
        misses_per_extent = np.add.reduceat(
            (~mask).astype(np.int64), offsets
        )
        return hits, fault_around_windows(
            misses_per_extent, self.fault_around_pages
        )

    def read_extents(
        self, first_lbas: np.ndarray, lba_counts: np.ndarray
    ) -> MmapOutcome:
        """Fault in every page of every extent, in order (QD1)."""
        pages_touched = int(np.asarray(lba_counts, dtype=np.int64).sum())
        hits, windows = self.plan_extents(first_lbas, lba_counts)
        majors = int(windows.size)
        missed = int(windows.sum())
        elapsed = self.sw.minor_lookup_cost(hits)
        if majors:
            elapsed += self.sw.fault_cost(majors)
            elapsed += self.sw.lock_cost(majors)
            elapsed += float(
                self.ssd.host_read_latency_batch(
                    windows * self.lba_bytes
                ).sum()
            )
        return MmapOutcome(
            elapsed_s=float(elapsed),
            pages_touched=pages_touched,
            major_faults=majors,
            pages_missed=missed,
            cache_hits=hits,
            bytes_from_ssd=missed * self.lba_bytes,
        )
