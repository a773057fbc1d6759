"""The full SSD device model: analytic latencies plus DES contention state.

Two usage modes, matching the pipeline's ``analytic`` and event-driven
modes (README "Execution backends & sharding"):

* **analytic** -- :class:`SSDevice` methods return closed-form latencies
  for a single QD1 requester (used for single-worker figures and fast
  sweeps);
* **event** -- :meth:`SSDevice.attach` yields an :class:`SSDState` holding
  shared :class:`~repro.sim.resources.Resource` objects (embedded cores,
  flash lanes, the host PCIe link) through which concurrent workers and
  the ISP engine contend, which is what shapes the multi-worker figures.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.config import HardwareParams
from repro.errors import StorageError
from repro.sim.engine import Simulator
from repro.sim.resources import BandwidthLink, Resource
from repro.storage.controller import FlashController
from repro.storage.embedded import EmbeddedCores
from repro.storage.nand import FlashArray
from repro.storage.nvme import NVMeInterface
from repro.storage.pagebuffer import PageBuffer
from repro.storage.pcie import PCIeFabric

__all__ = ["SSDevice", "SSDState"]


class SSDevice:
    """A firmware-based computational storage device (Cosmos+-like)."""

    def __init__(
        self,
        hw: HardwareParams = HardwareParams(),
        dedicated_isp_cores: bool = False,
    ):
        self.hw = hw
        self.nand = FlashArray(hw.nand)
        self.controller = FlashController(self.nand, hw.ssd)
        self.nvme = NVMeInterface(hw.nvme)
        self.fabric = PCIeFabric(hw.pcie)
        self.cores = EmbeddedCores(hw.embedded, dedicated_isp_cores)
        self.page_buffer = PageBuffer(
            max(1, hw.ssd.page_buffer_bytes // hw.nand.page_bytes)
        )
        # lifetime counters
        self.host_reads = 0
        self.host_bytes_out = 0

    # ------------------------------------------------------------------
    # analytic single-requester latencies
    # ------------------------------------------------------------------

    def host_read_latency(
        self,
        nbytes: int,
        include_nvme: bool = True,
        buffered: bool = False,
    ) -> float:
        """QD1 latency of one contiguous host read of ``nbytes``.

        Components: NVMe command handling, firmware I/O processing plus
        FTL translation on the embedded cores, the flash array (skipped
        when the extent is resident in the device page buffer), and the
        DMA back over the host PCIe link.
        """
        if nbytes <= 0:
            raise StorageError("host read must be a positive size")
        self.host_reads += 1
        self.host_bytes_out += nbytes
        time = 0.0
        if include_nvme:
            time += self.nvme.command_cost_s()
        time += self.cores.io_processing_cost(1, self.hw.ssd.firmware_io_s)
        time += self.cores.ftl_translate_cost(1)
        if buffered:
            time += self.hw.ssd.page_buffer_hit_s
        else:
            time += self.nand.extent_read_time_qd1(nbytes)
        time += self.fabric.host_transfer_time(nbytes)
        return time

    def host_read_latency_batch(
        self, nbytes, include_nvme: bool = True
    ):
        """Vectorized :meth:`host_read_latency` for many extent sizes.

        Returns an array of per-request QD1 latencies; used by the direct
        I/O path where every target node reads a different-sized extent.
        """
        nbytes = np.asarray(nbytes, dtype=np.float64)
        if nbytes.size and nbytes.min() <= 0:
            raise StorageError("host read must be a positive size")
        self.host_reads += int(nbytes.size)
        self.host_bytes_out += int(nbytes.sum())
        hw = self.hw
        page = hw.nand.page_bytes
        chan_bw = hw.nand.channel_bandwidth
        first_bytes = np.clip(nbytes, 512, page)
        rest_bytes = np.maximum(0.0, nbytes - np.minimum(nbytes, page))
        flash = hw.nand.read_latency_s + first_bytes / chan_bw + rest_bytes / chan_bw
        self.nand.pages_read += int(
            np.sum(np.ceil(nbytes / page))
        )
        fixed = hw.ssd.firmware_io_s + hw.embedded.ftl_translate_s
        if include_nvme:
            fixed += hw.nvme.command_overhead_s
            self.nvme.commands_issued += int(nbytes.size)
        self.cores.core_seconds_firmware += int(nbytes.size) * (
            hw.ssd.firmware_io_s + hw.embedded.ftl_translate_s
        )
        pcie = (
            hw.pcie.host_link_latency_s
            + nbytes / hw.pcie.host_link_bandwidth
        )
        return fixed + flash + pcie

    def host_write_latency(
        self,
        nbytes: int,
        include_nvme: bool = True,
        write_back: bool = True,
        fill_fraction: float = 0.0,
    ) -> float:
        """QD1 latency of one contiguous host write of ``nbytes``.

        With ``write_back`` (normal NVMe volatile-cache behaviour) the
        command completes once the data lands in the device DRAM buffer;
        the flash program happens in the background.  ``fill_fraction``
        models garbage-collection write amplification as the drive fills
        (reads+programs of valid pages relocated per host write) -- used
        by the training-checkpoint path, the one write-heavy operation in
        this workload.
        """
        if nbytes <= 0:
            raise StorageError("host write must be a positive size")
        if not 0.0 <= fill_fraction < 1.0:
            raise StorageError("fill_fraction must be in [0, 1)")
        time = 0.0
        if include_nvme:
            time += self.nvme.command_cost_s()
        time += self.cores.io_processing_cost(1, self.hw.ssd.firmware_io_s)
        time += self.cores.ftl_translate_cost(1)
        time += self.fabric.host_transfer_time(nbytes)
        if not write_back:
            amplification = 1.0 / max(1e-6, 1.0 - fill_fraction)
            time += amplification * self.nand.extent_program_time_qd1(
                nbytes
            )
        return time

    def isp_flash_time(self, n_pages: int, parallelism: Optional[int] = None) -> float:
        """Batch flash page reads issued by the ISP subgraph generator."""
        return self.nand.batch_read_time(n_pages, parallelism)

    def isp_compute_time(
        self, n_targets: int, n_samples: int, n_pages: int
    ) -> float:
        """Wall time of ISP sampling on the (shared) embedded cores."""
        core_s = self.cores.isp_sampling_cost(n_targets, n_samples, n_pages)
        return self.cores.isp_elapsed(core_s)

    def isp_return_dma_time(self, nbytes: int) -> float:
        """DMA of the dense sampled subgraph back to host memory."""
        self.host_bytes_out += nbytes
        return self.nvme.dma_setup_s() + self.fabric.host_transfer_time(nbytes)

    # ------------------------------------------------------------------
    # event-mode state
    # ------------------------------------------------------------------

    def attach(self, sim: Simulator, faults=None) -> "SSDState":
        return SSDState(sim, self, faults=faults)


class SSDState:
    """Shared contention state for one discrete-event simulation."""

    #: host requests per core-resource acquisition (coarsens events while
    #: keeping each worker's own requests strictly sequential, which is
    #: faithful for QD1 workers)
    BUNDLE = 8
    #: flash pages per ISP lane quantum
    ISP_PAGE_QUANTUM = 4

    def __init__(self, sim: Simulator, ssd: SSDevice, faults=None):
        self.sim = sim
        self.ssd = ssd
        hw = ssd.hw
        self.cores = ssd.cores.attach(sim)
        self.flash = Resource(
            sim, capacity=ssd.nand.concurrent_ops, name="ssd.flash"
        )
        self.host_link: BandwidthLink = ssd.fabric.host_link(sim)
        self.firmware_io_s = hw.ssd.firmware_io_s
        self.translate_s = hw.embedded.ftl_translate_s
        self.host_bytes_out = 0
        self.flash_pages_read = 0
        #: FaultInjector, or None for the (default) perfect device
        self.faults = faults

    # -- fault hooks ---------------------------------------------------

    def flash_reread_s(self, n_pages: int, site: str) -> float:
        """ECC re-read time to add inside a flash hold covering
        ``n_pages`` page reads (0.0 when no injector / zero rate)."""
        inj = self.faults
        if inj is None or n_pages <= 0:
            return 0.0
        n_err = inj.count(site, n_pages, inj.plan.flash_read_error_rate)
        if n_err <= 0:
            return 0.0
        reread = inj.plan.flash_reread_s
        if reread is None:
            reread = self.ssd.nand.page_service_time()
        inj.charge("flash_rereads", n_err)
        self.ssd.controller.record_ecc_rereads(n_err)
        return n_err * reread

    def nvme_timeout_stall(self, site: str):
        """Generator: the abort-and-reissue stall when this command
        bundle times out (no events at all when nothing fires)."""
        inj = self.faults
        if inj is not None and inj.happens(
            site, inj.plan.nvme_timeout_rate
        ):
            inj.charge("nvme_timeouts", 1)
            yield inj.plan.nvme_timeout_s

    # -- host (mmap / direct I/O) path ---------------------------------

    def host_read_sequence(
        self,
        n_requests: int,
        bytes_per_request: float,
        buffered_frac: float = 0.0,
    ):
        """Generator: one QD1 worker issuing ``n_requests`` reads in order.

        Requests are processed in bundles of :attr:`BUNDLE`; inside a
        bundle the worker's requests are strictly sequential (as a
        synchronous syscall/fault loop is), so bundling only coarsens how
        long resources are held, not the worker-perceived latency.
        """
        if n_requests <= 0:
            return
        nand = self.ssd.nand
        flash_t = nand.extent_read_time_qd1(int(bytes_per_request))
        buf_t = self.ssd.hw.ssd.page_buffer_hit_s
        pages = nand.pages_for(int(bytes_per_request))
        remaining = n_requests
        while remaining > 0:
            k = min(self.BUNDLE, remaining)
            remaining -= k
            misses = k * (1.0 - buffered_frac)
            if self.faults is not None:
                # NVMe command timeout: the worker stalls for the
                # detection window, aborts, and reissues the bundle
                yield from self.nvme_timeout_stall("ssd.nvme")
            # firmware + FTL on the embedded cores
            if not self.cores.try_acquire():
                yield self.cores.acquire()
            try:
                yield k * (self.firmware_io_s + self.translate_s)
            finally:
                self.cores.release()
            # flash array (only the page-buffer misses)
            if misses > 0:
                flash_s = misses * flash_t
                if self.faults is not None:
                    flash_s += self.flash_reread_s(
                        int(round(misses * pages)), "ssd.flash"
                    )
                if not self.flash.try_acquire():
                    yield self.flash.acquire()
                try:
                    yield flash_s
                finally:
                    self.flash.release()
                self.flash_pages_read += int(round(misses * pages))
            if buffered_frac > 0:
                yield (k - misses) * buf_t
            # DMA each request's payload back over the shared link
            yield from self.host_link.transfer(
                int(k * bytes_per_request)
            )
            self.host_bytes_out += int(k * bytes_per_request)

    # -- ISP path ---------------------------------------------------------

    def isp_flash_read(self, n_pages: int, lanes: Optional[int] = None):
        """Generator: batch flash reads with device-internal parallelism.

        Splits the batch into page quanta drained by up to ``lanes``
        concurrent lanes through the shared flash resource, so host I/O
        and ISP reads contend for the same flash lanes.  A lane is a
        chain of callbacks, not a process: it pops a quantum, takes a
        flash slot (``try_acquire``, or waits on ``acquire()``),
        schedules its own completion after the quantum's flash time,
        releases, and repeats until the work list is empty.

        Hops per call: one start hop that starts every lane in lane
        order, one hop per served quantum (plus the grant hop when a
        lane waits for a slot), one finish hop when the last lane
        runs dry, and the barrier hop that wakes the caller.  Every
        one of them is dispatched in the (time, sequence) order of one
        process per lane joined by :func:`~repro.sim.engine.all_of`:
        that formulation's lane start hops sit back to back in the
        queue, and its finish hops do nothing but count lanes down
        until the last.  A lane that raises fails the barrier, so the
        error surfaces in the caller.
        """
        if n_pages <= 0:
            return
        nand = self.ssd.nand
        lanes = lanes or nand.concurrent_ops
        # Keep at least ~2 quanta per lane so small batches still spread
        # across the whole array, while large batches stay cheap to
        # simulate (quanta count is bounded near 2 * lanes).
        quantum = max(
            self.ISP_PAGE_QUANTUM, -(-n_pages // (2 * lanes))
        )
        if n_pages < quantum * lanes:
            quantum = max(1, -(-n_pages // lanes))
        page_t = nand.page_service_time()
        quanta = [quantum] * (n_pages // quantum)
        if n_pages % quantum:
            quanta.append(n_pages % quantum)
        self.flash_pages_read += n_pages

        # Shared work list (seconds of flash time per quantum) drained
        # by the lanes.  ECC re-reads ride on the last quantum so the
        # zero-fault schedule is untouched.
        work = [q * page_t for q in reversed(quanta)]
        if self.faults is not None:
            reread_s = self.flash_reread_s(n_pages, "ssd.isp_flash")
            if reread_s > 0.0:
                work[0] += reread_s

        sim = self.sim
        call_at = sim.call_at
        flash = self.flash
        done = sim.event()
        n_lanes = min(lanes, len(quanta))
        live = n_lanes

        def abort(exc):
            if not done.triggered:
                done.fail(exc)

        def serve():
            # a lane's next step: take a quantum, or finish the lane
            nonlocal live
            try:
                if not work:
                    live -= 1
                    if live == 0:
                        call_at(sim.now, finish)
                    return
                q_s = work.pop()
                if flash.try_acquire():
                    call_at(sim.now + q_s, served)
                else:
                    flash.acquire().add_callback(
                        lambda _ev: call_at(sim.now + q_s, served)
                    )
            except Exception as exc:
                abort(exc)

        def served():
            try:
                flash.release()
            except Exception as exc:
                abort(exc)
                return
            serve()

        def finish():
            if not done.triggered:
                done.succeed()

        def start():
            for _ in range(n_lanes):
                serve()

        call_at(sim.now, start)
        yield done

    def isp_compute(self, core_seconds: float, slice_s: float = 200e-6):
        """Generator: ISP sampling work on the shared embedded cores.

        Work is consumed in time slices so host I/O firmware processing
        can interleave, which is exactly the interference the paper blames
        for the multi-worker speedup loss (Section VI-B).
        """
        remaining = core_seconds
        while remaining > 1e-12:
            piece = min(slice_s, remaining)
            remaining -= piece
            if not self.cores.try_acquire():
                yield self.cores.acquire()
            try:
                yield piece
            finally:
                self.cores.release()

    def isp_return_dma(self, nbytes: int):
        """Generator: DMA the dense subgraph back to host memory."""
        yield self.ssd.nvme.dma_setup_s()
        yield from self.host_link.transfer(nbytes)
        self.host_bytes_out += nbytes
