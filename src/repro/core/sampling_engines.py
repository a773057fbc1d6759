"""Per-design-point neighbor-sampling engines.

One engine per Fig 18 design point, each exposing:

* ``batch_cost(workload)`` -- closed-form cost of sampling one mini-batch
  (single QD1 worker, no cross-worker contention);
* ``batch_process(runtime, workload)`` -- a DES generator performing the
  same work against shared device resources, used by the multi-worker and
  end-to-end pipeline experiments.

Cache state (OS page cache, scratchpad, SSD page buffer) is carried
inside each engine, so repeated batches observe warm-cache behaviour in
both modes.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from repro.config import HardwareParams
from repro.core.accounting import BatchCost, SamplingWorkload
from repro.core.isp_control import ISPControlUnit
from repro.core.subgraph_generator import SubgraphGenerator
from repro.errors import ConfigError
from repro.graph.layout import EdgeListLayout
from repro.host.direct_io import align_up
from repro.host.driver import SmartSAGEDriver, nsconfig_wire_bytes
from repro.host.mmap_io import MmapReader
from repro.host.pagecache import OSPageCache
from repro.host.scratchpad import Scratchpad
from repro.host.syscall import HostSoftware
from repro.memory.dram import DRAMModel
from repro.memory.pmem import PMEMModel
from repro.storage.ssd import SSDevice

__all__ = [
    "DRAMSamplingEngine",
    "PMEMSamplingEngine",
    "MmapSamplingEngine",
    "DirectIOSamplingEngine",
    "ISPSamplingEngine",
]

#: page faults processed per event-mode bundle
_FAULT_BUNDLE = 32


class SamplingEngineBase:
    """Common interface; default event mode replays the analytic cost."""

    design = "base"

    def batch_cost(self, workload: SamplingWorkload) -> BatchCost:
        raise NotImplementedError

    def batch_process(self, runtime, workload: SamplingWorkload):
        cost = self.batch_cost(workload)
        yield cost.total_s


class DRAMSamplingEngine(SamplingEngineBase):
    """Oracular in-memory sampling: fine-grained loads from host DRAM."""

    design = "dram"

    def __init__(self, hw: HardwareParams, llc_hit_fraction: float = 0.38):
        if not 0.0 <= llc_hit_fraction <= 1.0:
            raise ConfigError("llc_hit_fraction must be in [0, 1]")
        self.hw = hw
        self.dram = DRAMModel(hw.dram)
        self.llc_hit_fraction = llc_hit_fraction

    def batch_cost(self, workload: SamplingWorkload) -> BatchCost:
        accesses = workload.total_targets + workload.total_samples
        t = self.dram.random_access_time(
            accesses,
            hit_fraction=self.llc_hit_fraction,
            llc_hit_latency_s=self.hw.llc.hit_latency_s,
        )
        cost = BatchCost(design=self.design)
        cost.add("dram_sampling", t)
        return cost


class PMEMSamplingEngine(SamplingEngineBase):
    """Optane PMEM on the memory bus: byte loads, no block I/O stack."""

    design = "pmem"

    def __init__(self, hw: HardwareParams):
        self.hw = hw
        self.pmem = PMEMModel(hw.pmem)

    def batch_cost(self, workload: SamplingWorkload) -> BatchCost:
        accesses = workload.total_targets + workload.total_samples
        cost = BatchCost(design=self.design)
        cost.add("pmem_sampling", self.pmem.random_access_time(accesses))
        return cost


class MmapSamplingEngine(SamplingEngineBase):
    """Baseline SSD-centric system: mmap through the OS page cache."""

    design = "ssd-mmap"

    def __init__(
        self,
        ssd: SSDevice,
        layout: EdgeListLayout,
        page_cache: OSPageCache,
        sw: Optional[HostSoftware] = None,
    ):
        self.ssd = ssd
        self.layout = layout
        self.sw = sw or HostSoftware()
        self.reader = MmapReader(ssd, page_cache, self.sw)
        self.lba_bytes = ssd.hw.ssd.lba_bytes

    def batch_cost(self, workload: SamplingWorkload) -> BatchCost:
        cost = BatchCost(design=self.design)
        for targets in workload.hop_targets:
            first, counts = self.layout.node_blocks(targets)
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
        for targets in workload.hop_targets:
            first, counts = self.layout.node_blocks(targets)
            hits, windows = self.reader.plan_extents(first, counts)
            if hits:
                yield self.sw.minor_lookup_cost(hits)
            majors = int(windows.size)
            if majors == 0:
                continue
            self.sw.faults += majors
            mean_window_bytes = float(windows.mean()) * self.lba_bytes
            remaining = majors
            while remaining > 0:
                k = min(_FAULT_BUNDLE, remaining)
                remaining -= k
                # serialized page-cache lock section
                if not runtime.pagecache_lock.try_acquire():
                    yield runtime.pagecache_lock.acquire()
                try:
                    yield k * params.pagecache_lock_s
                finally:
                    runtime.pagecache_lock.release()
                # parallel kernel fault work
                yield k * params.mmap_fault_s
                # one device read per fault-around window
                yield from runtime.ssd_state.host_read_sequence(
                    k, mean_window_bytes
                )


class DirectIOSamplingEngine(SamplingEngineBase):
    """SmartSAGE(SW): O_DIRECT extent reads + user-space scratchpad."""

    design = "smartsage-sw"

    def __init__(
        self,
        ssd: SSDevice,
        layout: EdgeListLayout,
        scratchpad: Optional[Scratchpad] = None,
        sw: Optional[HostSoftware] = None,
    ):
        self.ssd = ssd
        self.layout = layout
        self.scratchpad = scratchpad
        self.sw = sw or HostSoftware()
        self.lba_bytes = ssd.hw.ssd.lba_bytes

    def _hop_misses(self, targets: np.ndarray):
        """(aligned miss sizes, scratchpad hit count) for one hop."""
        nbytes = self.layout.node_bytes(targets)
        nonempty = nbytes > 0
        targets, nbytes = targets[nonempty], nbytes[nonempty]
        if targets.size == 0:
            return np.empty(0, dtype=np.int64), 0
        if self.scratchpad is not None:
            hit_mask = self.scratchpad.hit_mask(targets)
        else:
            hit_mask = np.zeros(targets.size, dtype=bool)
        miss_bytes = align_up(nbytes[~hit_mask], self.lba_bytes)
        return miss_bytes, int(hit_mask.sum())

    def batch_cost(self, workload: SamplingWorkload) -> BatchCost:
        cost = BatchCost(design=self.design)
        for targets in workload.hop_targets:
            miss_bytes, hits = self._hop_misses(targets)
            cost.add(
                "sw_syscall",
                self.sw.syscall_cost(int(miss_bytes.size))
                + hits * self.sw.params.scratchpad_hit_s,
            )
            if miss_bytes.size:
                cost.add(
                    "device_read",
                    float(
                        self.ssd.host_read_latency_batch(miss_bytes).sum()
                    ),
                )
            cost.bytes_from_ssd += int(miss_bytes.sum())
            cost.requests += int(miss_bytes.size)
        return cost

    def batch_process(self, runtime, workload: SamplingWorkload):
        for targets in workload.hop_targets:
            miss_bytes, hits = self._hop_misses(targets)
            sw_time = (
                self.sw.syscall_cost(int(miss_bytes.size))
                + hits * self.sw.params.scratchpad_hit_s
            )
            if sw_time:
                yield sw_time
            if miss_bytes.size:
                mean_bytes = float(miss_bytes.mean())
                yield from runtime.ssd_state.host_read_sequence(
                    int(miss_bytes.size), mean_bytes
                )


@lru_cache(maxsize=256)
def _command_spans(n_targets: int, granularity: int) -> tuple:
    """``(start_frac, end_frac, nsconfig_bytes)`` of each command that
    carries ``n_targets`` seeds, ``granularity`` per command; a
    command's NSconfig size depends only on its target count."""
    n = -(-n_targets // granularity)
    return tuple(
        (i / n, (i + 1) / n,
         nsconfig_wire_bytes(min(granularity, n_targets - i * granularity)))
        for i in range(n)
    )


class ISPSamplingEngine(SamplingEngineBase):
    """SmartSAGE(HW/SW): in-storage sampling on the SSD's embedded cores."""

    design = "smartsage-hwsw"

    def __init__(
        self,
        ssd: SSDevice,
        layout: EdgeListLayout,
        driver: SmartSAGEDriver,
        fanouts: Sequence[int],
        granularity: Optional[int] = None,
    ):
        self.ssd = ssd
        self.layout = layout
        self.driver = driver
        self.fanouts = tuple(fanouts)
        if not self.fanouts or any(f <= 0 for f in self.fanouts):
            raise ConfigError("ISP sampling needs positive fanouts")
        self.granularity = granularity
        self.generator = SubgraphGenerator(ssd, layout)
        self.control = ISPControlUnit(ssd)

    def _command_spans(self, workload: SamplingWorkload):
        """Per-command (start_frac, end_frac, nsconfig_bytes) tuples."""
        return _command_spans(
            workload.num_seeds, self.granularity or workload.num_seeds
        )

    def batch_cost(self, workload: SamplingWorkload) -> BatchCost:
        cost = BatchCost(design=self.design)
        g = self.granularity or workload.num_seeds
        plan = self.driver.plan_sampling(workload.num_seeds, g)
        cost.add("driver_sw", plan.host_time_s)
        for start, end, wire_bytes in self._command_spans(workload):
            device_plan = self.generator.plan_span(workload, start, end)
            cost.merge(self.control.execute(device_plan, wire_bytes))
        return cost

    def batch_process(self, runtime, workload: SamplingWorkload):
        sim = runtime.sim
        g = self.granularity or workload.num_seeds
        plan = self.driver.plan_sampling(workload.num_seeds, g)
        yield plan.host_time_s
        for start, end, wire_bytes in self._command_spans(workload):
            device_plan = self.generator.plan_span(workload, start, end)
            yield from self.control.execute_process(
                sim, runtime.ssd_state, device_plan, wire_bytes
            )
