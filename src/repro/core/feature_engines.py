"""Per-design-point feature table lookup engines (Fig 2 step 3).

SmartSAGE offloads only neighbor sampling to the ISP; feature lookups stay
on the host I/O path of each design (mmap for the baseline, direct I/O
for SmartSAGE).  That is why the end-to-end Fig 18 gains (3.5x) are much
smaller than the sampling-only Fig 14 gains (10.1x): feature lookup
remains a large SSD-bound component.

Like the sampling engines, every feature engine takes the batch's whole
:class:`~repro.core.accounting.SamplingWorkload` and reads its
``input_nodes``:

* ``batch_cost(workload)`` -- closed-form cost of gathering the batch's
  feature rows;
* ``batch_process(runtime, workload)`` -- a DES generator performing the
  same gathers against the shared device resources.

Taking the workload lets an engine plan what depends on the batch alone
once per process (:func:`~repro.core.accounting.workload_plan`), as
the GIDS engine does with its distinct feature pages.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.config import HardwareParams
from repro.core.accounting import BatchCost, SamplingWorkload
from repro.errors import ConfigError
from repro.graph.layout import FeatureTableLayout
from repro.host.mmap_io import MmapReader
from repro.host.pagecache import OSPageCache
from repro.host.scratchpad import Scratchpad
from repro.host.syscall import HostSoftware
from repro.memory.dram import DRAMModel
from repro.memory.pmem import PMEMModel
from repro.storage.ssd import SSDevice

__all__ = [
    "DRAMFeatureEngine",
    "PMEMFeatureEngine",
    "MmapFeatureEngine",
    "DirectIOFeatureEngine",
]

_FAULT_BUNDLE = 32


class FeatureEngineBase:
    """Common interface; default event mode replays the analytic cost.

    Both faces take the batch's :class:`SamplingWorkload` and gather
    the feature rows of its ``input_nodes``.
    """

    design = "base"

    def batch_cost(self, workload: SamplingWorkload) -> BatchCost:
        raise NotImplementedError

    def batch_process(self, runtime, workload: SamplingWorkload):
        cost = self.batch_cost(workload)
        yield cost.total_s


class DRAMFeatureEngine(FeatureEngineBase):
    """Feature table resident in host DRAM: gather at memory speed."""

    design = "dram"

    def __init__(self, hw: HardwareParams, row_bytes: int):
        if row_bytes <= 0:
            raise ConfigError("row_bytes must be positive")
        self.dram = DRAMModel(hw.dram)
        self.row_bytes = row_bytes

    def batch_cost(self, workload: SamplingWorkload) -> BatchCost:
        n = workload.num_input_nodes
        cost = BatchCost(design=self.design)
        cost.add(
            "dram_gather",
            self.dram.random_access_time(n)
            + self.dram.bulk_copy_time(n * self.row_bytes),
        )
        return cost


class PMEMFeatureEngine(FeatureEngineBase):
    """Feature table on Optane PMEM."""

    design = "pmem"

    def __init__(self, hw: HardwareParams, row_bytes: int):
        if row_bytes <= 0:
            raise ConfigError("row_bytes must be positive")
        self.pmem = PMEMModel(hw.pmem)
        self.row_bytes = row_bytes

    def batch_cost(self, workload: SamplingWorkload) -> BatchCost:
        n = workload.num_input_nodes
        cost = BatchCost(design=self.design)
        cost.add("pmem_gather", self.pmem.gather_time(n, self.row_bytes))
        return cost


class MmapFeatureEngine(FeatureEngineBase):
    """Feature rows demand-faulted through the OS page cache."""

    design = "ssd-mmap"

    def __init__(
        self,
        ssd: SSDevice,
        layout: FeatureTableLayout,
        page_cache: OSPageCache,
        sw: Optional[HostSoftware] = None,
    ):
        self.ssd = ssd
        self.layout = layout
        self.sw = sw or HostSoftware()
        self.reader = MmapReader(ssd, page_cache, self.sw)
        self.lba_bytes = ssd.hw.ssd.lba_bytes

    def batch_cost(self, workload: SamplingWorkload) -> BatchCost:
        nodes = np.asarray(workload.input_nodes, dtype=np.int64)
        cost = BatchCost(design=self.design)
        if nodes.size == 0:
            return cost
        first, counts = self.layout.row_blocks(nodes)
        out = self.reader.read_extents(first, counts)
        sw_time = (
            out.major_faults
            * (self.sw.params.mmap_fault_s
               + self.sw.params.pagecache_lock_s)
            + out.cache_hits * self.sw.params.pagecache_hit_s
        )
        cost.add("sw_pagecache", sw_time)
        cost.add("device_read", max(0.0, out.elapsed_s - sw_time))
        cost.bytes_from_ssd += out.bytes_from_ssd
        cost.requests += out.major_faults
        return cost

    def batch_process(self, runtime, workload: SamplingWorkload):
        params = self.sw.params
        nodes = np.asarray(workload.input_nodes, dtype=np.int64)
        if nodes.size == 0:
            return
        first, counts = self.layout.row_blocks(nodes)
        hits, windows = self.reader.plan_extents(first, counts)
        if hits:
            yield self.sw.minor_lookup_cost(hits)
        majors = int(windows.size)
        if majors == 0:
            return
        self.sw.faults += majors
        mean_window_bytes = float(windows.mean()) * self.lba_bytes
        remaining = majors
        while remaining > 0:
            k = min(_FAULT_BUNDLE, remaining)
            remaining -= k
            if not runtime.pagecache_lock.try_acquire():
                yield runtime.pagecache_lock.acquire()
            try:
                yield k * params.pagecache_lock_s
            finally:
                runtime.pagecache_lock.release()
            yield k * params.mmap_fault_s
            yield from runtime.ssd_state.host_read_sequence(
                k, mean_window_bytes
            )


class DirectIOFeatureEngine(FeatureEngineBase):
    """Feature rows read with O_DIRECT into a user-space scratchpad."""

    design = "smartsage"

    def __init__(
        self,
        ssd: SSDevice,
        layout: FeatureTableLayout,
        scratchpad: Optional[Scratchpad] = None,
        sw: Optional[HostSoftware] = None,
    ):
        self.ssd = ssd
        self.layout = layout
        self.scratchpad = scratchpad
        self.sw = sw or HostSoftware()
        self.lba_bytes = ssd.hw.ssd.lba_bytes
        # one aligned read per row
        self.read_bytes = max(
            self.lba_bytes,
            -(-layout.row_bytes // self.lba_bytes) * self.lba_bytes,
        )

    def _misses(self, workload: SamplingWorkload):
        """``(misses, hits)`` of the batch's rows in the scratchpad."""
        n = workload.num_input_nodes
        if self.scratchpad is None:
            return n, 0
        misses = self.scratchpad.miss_count(workload.input_nodes)
        return misses, n - misses

    def batch_cost(self, workload: SamplingWorkload) -> BatchCost:
        misses, hits = self._misses(workload)
        cost = BatchCost(design=self.design)
        cost.add(
            "sw_syscall",
            self.sw.syscall_cost(misses)
            + hits * self.sw.params.scratchpad_hit_s,
        )
        if misses:
            cost.add(
                "device_read",
                misses * self.ssd.host_read_latency(self.read_bytes),
            )
            self.ssd.host_reads += misses - 1
            self.ssd.host_bytes_out += (misses - 1) * self.read_bytes
        cost.bytes_from_ssd += misses * self.read_bytes
        cost.requests += misses
        return cost

    def batch_process(self, runtime, workload: SamplingWorkload):
        misses, hits = self._misses(workload)
        sw_time = (
            self.sw.syscall_cost(misses)
            + hits * self.sw.params.scratchpad_hit_s
        )
        if sw_time:
            yield sw_time
        if misses:
            yield from runtime.ssd_state.host_read_sequence(
                misses, self.read_bytes
            )
