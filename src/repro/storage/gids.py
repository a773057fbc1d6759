"""GPU-initiated direct storage access (GIDS/BaM-style) device model.

SmartSAGE answers storage-bound GNN training by moving the *sampler*
into the SSD; GIDS (Park et al.) answers it from the opposite side by
letting the *GPU* issue NVMe reads itself.  This module models that
design point over the same SSD substrate:

* :class:`GIDSQueuePairs` -- GPU-resident NVMe submission/completion
  queue pairs with a bounded depth.  Every GPU thread of a warp builds
  its own SQ entry in parallel, one lane rings the doorbell over the
  PCIe BAR, and the warp polls its completions, so submission cost is
  per *warp*, not per request -- the software-stack bypass that makes
  GPU-initiated I/O cheap.
* :class:`GPUFeatureCache` -- a GPU-HBM software page cache for feature
  table pages, an exact LRU reusing the batched kernel in
  :mod:`repro.memory.lru` (the same kernel behind the host page cache,
  scratchpads, and the SSD page buffer).
* :class:`BARTraffic` -- accounting of the SSD->GPU traffic that flows
  over the PCIe BAR window and therefore *bypasses the host DRAM bounce
  buffer* (in host-mediated designs every feature byte is staged in
  host DRAM and copied again over the GPU link).
* :class:`GIDSController` / :class:`GIDSState` -- the analytic and
  discrete-event faces tying the pieces to one :class:`SSDevice`, the
  same dual-mode structure every other engine substrate here follows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.cache.policy import LRUPolicy
from repro.config import GIDSParams
from repro.errors import StorageError
from repro.sim.resources import BandwidthLink, Resource
from repro.storage.ssd import SSDevice, SSDState

__all__ = [
    "GIDSQueuePairs",
    "GPUFeatureCache",
    "BARTraffic",
    "GIDSController",
    "GIDSState",
]


class GIDSQueuePairs:
    """GPU-resident NVMe queue pairs: warp-granular submission costs.

    ``qp_depth`` bounds how many warp-sized submissions may be in
    flight device-wide (the event-mode :class:`GIDSState` enforces it
    with a :class:`~repro.sim.resources.Resource`); the analytic side
    prices the per-warp doorbell/poll work.
    """

    def __init__(self, params: GIDSParams, qp_depth: int = 64):
        if qp_depth < 1:
            raise StorageError(
                f"qp_depth must be >= 1, got {qp_depth}"
            )
        self.params = params
        self.qp_depth = qp_depth
        self.requests_submitted = 0
        self.doorbells_rung = 0

    def warps(self, n_requests: int) -> int:
        """Warp-sized submission groups needed for ``n_requests``."""
        return -(-n_requests // self.params.warp_size)

    def submission_cost(self, n_requests: int) -> float:
        """GPU-side cost of submitting ``n_requests`` reads.

        SQ entries are built by the warp's lanes in parallel, so each
        warp pays one build + one doorbell + one completion poll.
        """
        if n_requests <= 0:
            return 0.0
        warps = self.warps(n_requests)
        self.requests_submitted += n_requests
        self.doorbells_rung += warps
        p = self.params
        return warps * (p.submit_s + p.doorbell_s + p.poll_s)


class GPUFeatureCache:
    """GPU-HBM software page cache over feature-table pages (exact LRU).

    Keys are LBA-sized page IDs of the feature table, so co-located
    feature rows share cache lines the way GIDS's software cache shares
    512 B/4 KiB cache lines in GPU memory.  The membership kernel now
    lives in :class:`repro.cache.policy.LRUPolicy` (the registered
    ``"lru"`` policy of the tiered cache subsystem); this class remains
    the single-tier convenience wrapper with hit/miss accounting.
    """

    def __init__(self, capacity_bytes: int, page_bytes: int = 4096):
        if page_bytes <= 0:
            raise StorageError("page_bytes must be positive")
        if capacity_bytes < page_bytes:
            raise StorageError(
                "GPU cache needs capacity for at least one page"
            )
        self.capacity_pages = capacity_bytes // page_bytes
        self.page_bytes = page_bytes
        self._policy = LRUPolicy(self.capacity_pages)
        self.hits = 0
        self.misses = 0

    @property
    def _lru(self):
        """The underlying recency-ordered dict (tests inspect it)."""
        return self._policy._lru

    def __len__(self) -> int:
        return len(self._policy)

    def __contains__(self, page: int) -> bool:
        return page in self._policy

    def _account(self, mask: np.ndarray) -> np.ndarray:
        """The one hit/miss bookkeeping path both access kernels share."""
        hits = int(mask.sum())
        self.hits += hits
        self.misses += int(mask.size) - hits
        return mask

    def hit_mask(self, pages: np.ndarray) -> np.ndarray:
        """Per-page hit/miss mask for a batch (updates LRU state)."""
        return self._account(self._policy.access(pages))

    def hit_mask_scalar(self, pages: np.ndarray) -> np.ndarray:
        """Reference implementation of :meth:`hit_mask` (parity tests)."""
        return self._account(self._policy.access_scalar(pages))

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        self._policy.clear()
        self.hits = 0
        self.misses = 0


@dataclass
class BARTraffic:
    """SSD->GPU bytes moved through the PCIe BAR window.

    Every byte counted here skipped the host DRAM bounce buffer that
    host-mediated designs stage reads in (and skipped the second copy
    over the host->GPU link that staging implies).
    """

    bar_bytes: int = 0
    transactions: int = 0

    def record(self, n_requests: int, nbytes: int) -> None:
        self.transactions += n_requests
        self.bar_bytes += nbytes

    @property
    def bounce_bytes_avoided(self) -> int:
        """Bytes that would have been staged in host DRAM otherwise."""
        return self.bar_bytes


class GIDSController:
    """One GIDS access path over one SSD: queues + cache + accounting.

    ``qp_depth`` is the run knob (``RunSpec.qp_depth``); the ``gids``
    execution backend assigns it before attaching, so one built system
    can be re-run at different depths.  ``cache`` is ``None`` for the
    uncached ``gids-baseline`` design, a single-tier
    :class:`GPUFeatureCache`, or a
    :class:`repro.cache.tiers.TieredFeatureCache` stack (the design
    builders construct the latter from ``SystemSpec.cache_tiers``).
    """

    def __init__(
        self,
        ssd: SSDevice,
        cache=None,
        qp_depth: int = 64,
    ):
        self.ssd = ssd
        self.params: GIDSParams = ssd.hw.gids
        self.cache = cache
        self.queues = GIDSQueuePairs(self.params, qp_depth)
        self.traffic = BARTraffic()

    @property
    def qp_depth(self) -> int:
        return self.queues.qp_depth

    @qp_depth.setter
    def qp_depth(self, depth: int) -> None:
        if depth < 1:
            raise StorageError(f"qp_depth must be >= 1, got {depth}")
        self.queues.qp_depth = depth

    # -- analytic single-requester latencies ---------------------------

    def submission_cost(self, n_requests: int) -> float:
        return self.queues.submission_cost(n_requests)

    def direct_read_latency_batch(self, nbytes) -> np.ndarray:
        """Per-request QD1 latency of GPU-initiated direct reads.

        Same firmware/FTL/flash path as a host read (the SSD still
        processes an NVMe command), but the NVMe *host-software* command
        overhead is replaced by the warp submission model (priced
        separately via :meth:`submission_cost`) and the DMA lands in GPU
        HBM through the PCIe switch -- one extra hop, zero host-DRAM
        staging.
        """
        nbytes = np.asarray(nbytes, dtype=np.float64)
        latency = self.ssd.host_read_latency_batch(
            nbytes, include_nvme=False
        )
        self.traffic.record(int(nbytes.size), int(nbytes.sum()))
        return latency + self.ssd.hw.pcie.p2p_switch_latency_s

    def cache_hit_cost(self, n_hits: int) -> float:
        """GPU-side service time for ``n_hits`` software-cache hits."""
        return n_hits * self.params.cache_hit_s

    # -- event-mode state ----------------------------------------------

    def attach(
        self,
        sim,
        ssd_state: SSDState,
        qp_depth: Optional[int] = None,
        faults=None,
    ) -> "GIDSState":
        return GIDSState(
            sim, self, ssd_state, qp_depth or self.qp_depth,
            faults=faults,
        )


class GIDSState:
    """Shared contention state of the GIDS path for one simulation.

    The BAR link is the SSD's PCIe port routed through the switch to
    the GPU -- concurrent GPU fetch kernels serialize on it exactly as
    host readers serialize on the host link.  Firmware/FTL and flash
    work still goes through the *SSD's* shared resources, so a GIDS
    design contends for the same device internals every other design
    does.
    """

    def __init__(
        self,
        sim,
        controller: GIDSController,
        ssd_state: SSDState,
        qp_depth: int,
        faults=None,
    ):
        self.sim = sim
        self.controller = controller
        self.ssd_state = ssd_state
        #: FaultInjector, or None for the (default) perfect path;
        #: draws use GIDS-specific sites so the GPU-initiated path
        #: faults independently of host commands on the same device
        self.faults = faults if faults is not None else (
            ssd_state.faults if ssd_state is not None else None
        )
        pcie = controller.ssd.hw.pcie
        self.bar_link = BandwidthLink(
            sim,
            pcie.host_link_bandwidth,
            pcie.host_link_latency_s + pcie.p2p_switch_latency_s,
            name="pcie.bar",
        )
        #: in-flight warp submissions allowed by the queue-pair depth
        self.qp_slots = Resource(
            sim, capacity=qp_depth, name="gids.qp"
        )

    def gpu_read_sequence(self, n_requests: int, bytes_per_request: float):
        """Generator: one GPU fetch kernel issuing ``n_requests`` reads.

        Requests go out in warp-sized submissions; each submission holds
        one queue-pair slot from doorbell to completion DMA, so a
        shallow ``qp_depth`` throttles concurrent fetch kernels the way
        a small GPU-resident queue would.
        """
        if n_requests <= 0:
            return
        ctl = self.controller
        params = ctl.params
        ssd_state = self.ssd_state
        nand = ctl.ssd.nand
        flash_t = nand.extent_read_time_qd1(int(bytes_per_request))
        pages = nand.pages_for(int(bytes_per_request))
        remaining = n_requests
        while remaining > 0:
            k = min(params.warp_size, remaining)
            remaining -= k
            if not self.qp_slots.try_acquire():
                yield self.qp_slots.acquire()
            try:
                # warp-parallel SQ build + doorbell + completion poll
                yield ctl.submission_cost(k)
                if self.faults is not None:
                    # a timed-out command stalls the whole warp (it
                    # polls one completion) before the reissue
                    yield from ssd_state.nvme_timeout_stall("gids.nvme")
                # firmware + FTL on the SSD's embedded cores
                if not ssd_state.cores.try_acquire():
                    yield ssd_state.cores.acquire()
                try:
                    yield k * (
                        ssd_state.firmware_io_s + ssd_state.translate_s
                    )
                finally:
                    ssd_state.cores.release()
                # flash array reads
                flash_s = k * flash_t
                if self.faults is not None:
                    flash_s += ssd_state.flash_reread_s(
                        k * pages, "gids.flash"
                    )
                if not ssd_state.flash.try_acquire():
                    yield ssd_state.flash.acquire()
                try:
                    yield flash_s
                finally:
                    ssd_state.flash.release()
                ssd_state.flash_pages_read += k * pages
                # DMA straight into GPU HBM over the BAR window
                yield from self.bar_link.transfer(
                    int(k * bytes_per_request)
                )
            finally:
                self.qp_slots.release()
            ctl.traffic.record(k, int(k * bytes_per_request))

    def gpu_cache_hits(self, n_hits: int):
        """Generator: GPU software-cache hit service (no device I/O)."""
        if n_hits > 0:
            yield self.controller.cache_hit_cost(n_hits)

    def cache_service(self, hit_costs):
        """Generator: tiered cache-hit service, one event per tier hit.

        ``hit_costs`` is ``CacheLookup.hit_costs()`` -- (component,
        n_hits, cost_s) per tier that served hits.  A single-HBM stack
        yields exactly one timeout of ``n_hits * cache_hit_s``, the
        schedule :meth:`gpu_cache_hits` produced before the refactor.
        """
        for _component, _n_hits, cost_s in hit_costs:
            yield cost_s
