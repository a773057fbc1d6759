"""The ISP control unit: executes subgraph-generation commands (Fig 11).

Walks the seven steps of Section IV-B's hardware/software interaction:
receive the NVMe command, DMA the NSconfig down, translate addresses,
enqueue flash page reads, sample out of the page buffer, and DMA the dense
subgraph back.  Flash reads and sampling compute overlap (the generator
pipelines page arrivals into gathers), so the critical path charges
``max(flash, compute)`` -- both in the analytic and the event mode.
"""

from __future__ import annotations

from repro.core.accounting import BatchCost
from repro.core.subgraph_generator import ISPBatchPlan
from repro.sim.engine import Simulator, all_of
from repro.storage.ssd import SSDevice, SSDState

__all__ = ["ISPControlUnit"]


class ISPControlUnit:
    """Times the device-side execution of one ISP command."""

    def __init__(self, ssd: SSDevice):
        self.ssd = ssd
        self.commands_executed = 0

    # -- analytic ------------------------------------------------------------

    def execute(self, plan: ISPBatchPlan, nsconfig_bytes: int) -> BatchCost:
        """Closed-form device time for one command (single requester)."""
        self.commands_executed += 1
        cost = BatchCost(design="isp-device")
        # step 1-2: firmware receives the command, then DMAs the NSconfig
        # CPU->SSD.  Command handling costs embedded-core time just like
        # an ordinary I/O -- this is what makes fine coalescing
        # granularities collapse in Fig 15.
        cost.add("cmd_processing", self.ssd.hw.ssd.firmware_io_s)
        self.ssd.cores.core_seconds_firmware += self.ssd.hw.ssd.firmware_io_s
        cost.add(
            "nsconfig_dma",
            self.ssd.nvme.dma_setup_s()
            + self.ssd.fabric.host_transfer_time(nsconfig_bytes),
        )
        # steps 3-6: flash page reads overlap with in-storage sampling
        flash_s = self.ssd.isp_flash_time(plan.pages_from_flash)
        compute_s = self.ssd.cores.isp_elapsed(plan.core_seconds)
        cost.add("isp_flash", flash_s, overlap=True)
        cost.add("isp_compute", compute_s, overlap=True)
        cost.total_s += max(flash_s, compute_s)
        # step 7: DMA the dense subgraph back
        cost.add("return_dma", self.ssd.isp_return_dma_time(plan.return_bytes))
        cost.bytes_from_ssd += plan.return_bytes
        cost.requests += 1
        return cost

    # -- event mode ------------------------------------------------------------

    def execute_process(
        self, sim: Simulator, state: SSDState, plan: ISPBatchPlan,
        nsconfig_bytes: int,
    ):
        """Generator executing one command against shared device state."""
        self.commands_executed += 1
        # command handling on the shared embedded cores
        if not state.cores.try_acquire():
            yield state.cores.acquire()
        try:
            yield self.ssd.hw.ssd.firmware_io_s
        finally:
            state.cores.release()
        # NSconfig DMA down
        yield self.ssd.nvme.dma_setup_s()
        yield from state.host_link.transfer(nsconfig_bytes)
        # flash reads and sampling compute proceed concurrently
        flash_proc = sim.process(
            _as_proc(state.isp_flash_read(plan.pages_from_flash)),
            name="isp-flash",
        )
        compute_proc = sim.process(
            _as_proc(state.isp_compute(plan.core_seconds)),
            name="isp-compute",
        )
        yield all_of(sim, [flash_proc, compute_proc])
        # result DMA back
        yield from state.isp_return_dma(plan.return_bytes)


def _as_proc(gen):
    """Wrap a (possibly empty) generator so it is always a generator."""
    yield from gen
