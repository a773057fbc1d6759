"""Hardware and software cost parameters for the SmartSAGE simulation.

Every latency, bandwidth, and capacity constant used anywhere in the
simulator lives here, grouped per device, so that all experiments draw from
one mechanistic parameter set (``python -m repro calibrate`` checks the
headline ratios it produces, see README "Command line").  The defaults
model the paper's testbed:

* host: Intel Xeon Gold 6242 + 192 GB DDR4 (125 GB/s peak per the paper)
* GPU: NVIDIA Tesla T4 over PCIe gen3 x16
* CSD: Cosmos+ OpenSSD -- NAND flash behind a dual-core ARM Cortex-A9
  running the FTL firmware, PCIe gen2 x8 host link
* PMEM: Intel Optane DC persistent memory on the DDR bus
* FPGA CSD: Samsung-Xilinx SmartSSD (SSD and FPGA behind a PCIe switch)

Times are seconds, sizes are bytes, bandwidths are bytes/second.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB


@dataclass(frozen=True)
class DRAMParams:
    """Host DRAM (capacity-optimized DDR4 DIMMs)."""

    load_latency_s: float = 90e-9     # random load-to-use latency
    peak_bandwidth: float = 125e9     # paper quotes 125 GB/sec maximum
    line_bytes: int = 64              # cache-line transfer granularity
    mlp: int = 4                      # memory-level parallelism per worker


@dataclass(frozen=True)
class LLCParams:
    """Last-level cache of the host CPU (used for Fig 5 characterization)."""

    capacity_bytes: int = 32 * MIB
    ways: int = 16
    line_bytes: int = 64
    hit_latency_s: float = 18e-9


@dataclass(frozen=True)
class PMEMParams:
    """Intel Optane DC PMEM in app-direct mode on the memory bus."""

    load_latency_s: float = 320e-9
    peak_bandwidth: float = 38e9
    line_bytes: int = 256             # Optane internal access granule
    mlp: int = 4


@dataclass(frozen=True)
class NANDParams:
    """NAND flash array geometry and timing inside the SSD."""

    page_bytes: int = 16 * KIB
    read_latency_s: float = 45e-6     # tR: page read from cell to register
    program_latency_s: float = 660e-6
    channel_count: int = 8
    ways_per_channel: int = 4
    channel_bandwidth: float = 800e6  # ONFI transfer rate per channel

    @property
    def concurrent_ops(self) -> int:
        """Number of flash page operations that can overlap device-wide."""
        return self.channel_count * self.ways_per_channel

    @property
    def internal_read_bandwidth(self) -> float:
        """Aggregate sustained page-read bandwidth of the flash array."""
        per_op = self.page_bytes / (
            self.read_latency_s + self.page_bytes / self.channel_bandwidth
        )
        return per_op * self.concurrent_ops


@dataclass(frozen=True)
class SSDParams:
    """SSD device-level parameters (controller + DRAM page buffer)."""

    lba_bytes: int = 4 * KIB          # logical block size seen by the host
    firmware_io_s: float = 24e-6      # embedded-core cost to process one I/O
                                      # (research firmware on a wimpy A9;
                                      # this is the host-path IOPS ceiling)
    page_buffer_bytes: int = 1 * GIB  # on-device DRAM page buffer
    page_buffer_hit_s: float = 2e-6   # serve a block already buffered
    capacity_bytes: int = 2 * (1024 ** 4)  # Cosmos+ OpenSSD: 2 TB


@dataclass(frozen=True)
class PCIeParams:
    """PCIe links: SSD<->host (gen2 x8) and host<->GPU (gen3 x16)."""

    host_link_bandwidth: float = 3.2e9   # gen2 x8 effective
    host_link_latency_s: float = 0.9e-6  # per-transaction latency
    gpu_link_bandwidth: float = 12.5e9   # gen3 x16 effective
    gpu_link_latency_s: float = 0.7e-6
    p2p_switch_latency_s: float = 1.5e-6  # extra hop through CSD PCIe switch


@dataclass(frozen=True)
class NVMeParams:
    """NVMe protocol costs (submission/doorbell/completion/interrupt)."""

    command_overhead_s: float = 6e-6
    dma_setup_s: float = 2e-6


@dataclass(frozen=True)
class EmbeddedParams:
    """SSD embedded processor (dual-core ARM Cortex-A9 on Cosmos+).

    The same cores run the FTL firmware and, for SmartSAGE(HW/SW), the ISP
    neighbor-sampling operator, so ISP work and ordinary I/O processing
    contend for ``core_count`` cores.
    """

    core_count: int = 2
    ftl_translate_s: float = 4e-6     # logical->physical translation, per req
    isp_target_setup_s: float = 10e-6  # per-target-node ISP bookkeeping
    isp_per_sample_s: float = 0.25e-6  # per sampled neighbor gather
    isp_page_manage_s: float = 2.5e-6  # per flash page staged for sampling
    firmware_reserve_frac: float = 0.2  # core share kept by base firmware
    oracle_core_count: int = 4        # Newport-like dedicated ISP cores

    @property
    def effective_cores(self) -> float:
        """Cores usable by ISP after the base firmware's share."""
        return self.core_count * (1.0 - self.firmware_reserve_frac)


@dataclass(frozen=True)
class HostSWParams:
    """Host system-software costs for the two I/O paths."""

    mmap_fault_s: float = 6e-6        # parallelizable fault work (kernel
                                      # entry/exit, page-table updates)
    pagecache_hit_s: float = 1.5e-6   # minor lookup in the OS page cache
    direct_syscall_s: float = 8e-6    # pread(O_DIRECT) submission cost
    ioctl_s: float = 10e-6            # SmartSAGE driver ioctl() entry
    scratchpad_hit_s: float = 0.4e-6  # user-space buffer lookup
    pagecache_lock_s: float = 30e-6   # serialized page-cache maintenance per
                                      # fault (radix-tree insert, LRU list,
                                      # rmap) -- the global-lock section that
                                      # throttles multi-worker mmap (§VI-B)


@dataclass(frozen=True)
class GPUParams:
    """Backend GNN training throughput model (Tesla T4)."""

    effective_flops: float = 4.0e12   # achieved mixed sparse/dense FLOP/s
    kernel_overhead_s: float = 2.0e-3  # per-mini-batch framework + kernel
                                       # launch overhead (PyG-style steps)
    hbm_bandwidth: float = 300e9


@dataclass(frozen=True)
class FPGAParams:
    """FPGA-based CSD (SmartSSD) alternative design point."""

    sample_per_target_s: float = 0.4e-6  # hardwired gather unit, per target
    p2p_read_overhead_s: float = 18e-6   # per P2P chunk transfer setup
    fpga_dram_bandwidth: float = 19e9


@dataclass(frozen=True)
class GIDSParams:
    """GPU-initiated direct storage access (GIDS/BaM-style) path.

    GPU threads build NVMe submission-queue entries in parallel inside a
    warp; one lane rings the device doorbell over the PCIe BAR and the
    warp later polls its completion entries.  Data is DMA-ed from the
    SSD straight into GPU HBM through the PCIe switch, bypassing the
    host-DRAM bounce buffer entirely.
    """

    warp_size: int = 32               # requests submitted per warp
    submit_s: float = 0.12e-6         # SQ-entry build (parallel per warp)
    doorbell_s: float = 0.9e-6        # per-warp doorbell write over the BAR
    poll_s: float = 0.3e-6            # per-warp completion-queue polling
    cache_hit_s: float = 0.25e-6      # GPU software page-cache hit service


@dataclass(frozen=True)
class CacheParams:
    """Tiered feature-cache hierarchy pricing (:mod:`repro.cache`).

    The ``hbm`` tier reuses ``GIDSParams.cache_hit_s`` per hit and is
    sized by ``SystemSpec.gpu_cache_mb`` (``hbm_capacity_mb`` is the
    fallback when a caller has no spec knob); this section prices the
    two scale-out tiers: a ``peer`` GPU serving its replica's hot pages
    over an NVLink-class point-to-point link, and a pinned-host ``uva``
    zero-copy window the GPU reads over the PCIe GPU link
    (``PCIeParams.gpu_link_*``).
    """

    hbm_capacity_mb: float = 64.0     # default HBM software-cache budget
    peer_capacity_mb: float = 64.0    # HBM borrowed on the peer GPU
    nvlink_bandwidth: float = 50e9    # NVLink-class peer link, effective
    nvlink_latency_s: float = 1.9e-6  # peer read request/response latency
    uva_capacity_mb: float = 256.0    # pinned-host UVA window


#: network fabric topologies between hosts (see repro.net.fabric)
FABRIC_TOPOLOGIES = ("flat", "rack")


@dataclass(frozen=True)
class FabricParams:
    """Multi-host network fabric (NICs, TOR switches, oversubscribed spine).

    Models a conventional training-cluster network: every host owns a
    100 GbE-class NIC into its top-of-rack switch (the *intra-rack*
    tier), and racks of ``rack_size`` hosts share one uplink into the
    spine (the *cross-rack* tier).  ``oversubscription`` is the usual
    rack fan-in ratio: the per-host bandwidth actually available across
    racks is ``cross_rack_bandwidth / oversubscription`` in the
    analytic model; the event-driven model instead makes all hosts of a
    rack contend for the one shared uplink, so the same ratio emerges
    from queueing.  RPC costs model the DistDGL-style request/response
    message pairs (serialize + dispatch per message, plus a per-byte
    marshalling cost on the payload).
    """

    intra_rack_bandwidth: float = 12.5e9   # 100 GbE effective, per host NIC
    intra_rack_latency_s: float = 3e-6     # NIC + TOR switch hop
    cross_rack_bandwidth: float = 12.5e9   # one shared uplink per rack
    cross_rack_latency_s: float = 12e-6    # NIC + TOR + spine + TOR
    oversubscription: float = 4.0          # rack fan-in (hosts per uplink)
    rack_size: int = 4                     # hosts behind one TOR uplink
    rpc_fixed_s: float = 8e-6              # per-message serialize + dispatch
    rpc_per_byte_s: float = 0.05e-9        # payload marshalling (~20 GB/s)
    grad_dtype_bytes: int = 4              # gradient element width
    allreduce: str = "ring"                # "ring" or "tree" collective


@dataclass(frozen=True)
class WorkloadParams:
    """GraphSAGE training-loop defaults from the paper (Section V)."""

    batch_size: int = 1024
    fanouts: tuple = (25, 10)         # neighbors per target, layers 1 and 2
    hidden_dim: int = 256
    num_workers: int = 12             # paper: performance peaks at 12
    queue_depth: int = 4              # GPU work-queue depth (subgraphs)
    edge_id_bytes: int = 8            # paper: 8-byte reads during sampling
    feature_dtype_bytes: int = 4


@dataclass(frozen=True)
class HardwareParams:
    """The full parameter bundle used by every experiment."""

    dram: DRAMParams = DRAMParams()
    llc: LLCParams = LLCParams()
    pmem: PMEMParams = PMEMParams()
    nand: NANDParams = NANDParams()
    ssd: SSDParams = SSDParams()
    pcie: PCIeParams = PCIeParams()
    nvme: NVMeParams = NVMeParams()
    embedded: EmbeddedParams = EmbeddedParams()
    hostsw: HostSWParams = HostSWParams()
    gpu: GPUParams = GPUParams()
    fpga: FPGAParams = FPGAParams()
    gids: GIDSParams = GIDSParams()
    cache: CacheParams = CacheParams()
    fabric: FabricParams = FabricParams()
    workload: WorkloadParams = WorkloadParams()

    def replace(self, **kwargs) -> "HardwareParams":
        """Return a copy with the given top-level sections replaced."""
        return dataclasses.replace(self, **kwargs)

    def replace_in(self, section: str, **kwargs) -> "HardwareParams":
        """Return a copy with fields inside one section replaced.

        Example::

            hw.replace_in("workload", batch_size=64)
        """
        current = getattr(self, section)
        return dataclasses.replace(
            self, **{section: dataclasses.replace(current, **kwargs)}
        )


def default_hardware() -> HardwareParams:
    """The calibrated defaults used throughout tests and benchmarks."""
    return HardwareParams()


def scaled_hardware(llc_bytes: int = 2 * MIB) -> HardwareParams:
    """Hardware with the LLC scaled down to match scaled-down datasets.

    The repo runs graphs roughly 1000x smaller than the paper's; shrinking
    the LLC keeps the working-set-to-cache ratio (and therefore the Fig 5
    miss-rate shape) representative.
    """
    hw = default_hardware()
    return hw.replace(llc=dataclasses.replace(hw.llc, capacity_bytes=llc_bytes))
