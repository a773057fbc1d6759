"""Host drivers: the baseline NVMe block driver and the SmartSAGE driver.

The SmartSAGE driver (Section IV-C) coalesces an entire mini-batch of
neighbor sampling into a single NVMe command: the ``ioctl()`` carries one
``NSconfig`` pointer, the SSD DMAs the config down, and the host pays the
command/control path once per *batch* instead of once per *I/O*.  Fig 15
sweeps this coalescing granularity, so the plan below is parameterized by
how many targets share one command.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import PCIeParams
from repro.errors import ConfigError
from repro.host.syscall import HostSoftware
from repro.storage.nvme import NVMeCommand, NVMeInterface, NVMeOpcode
from repro.storage.pcie import PCIeFabric

__all__ = ["SamplingCommandPlan", "SmartSAGEDriver", "nsconfig_wire_bytes"]

#: bytes of NSconfig metadata per target node (logical block address,
#: neighbor count to sample, flags -- Section IV-B step 1)
NSCONFIG_BYTES_PER_TARGET = 16
#: fixed NSconfig header (sampling parameters, result buffer pointer)
NSCONFIG_HEADER_BYTES = 64


def nsconfig_wire_bytes(n_targets: int) -> int:
    """CPU->SSD DMA payload of one NSconfig carrying ``n_targets``."""
    return NSCONFIG_HEADER_BYTES + n_targets * NSCONFIG_BYTES_PER_TARGET


@dataclass(frozen=True)
class SamplingCommandPlan:
    """Host-side cost of issuing one mini-batch of ISP sampling."""

    n_commands: int
    host_time_s: float         # ioctl + command + DMA setup costs
    nsconfig_bytes: int        # total CPU->SSD config payload
    nsconfig_transfer_s: float  # PCIe time for the config DMA


class SmartSAGEDriver:
    """ioctl-based driver issuing coalesced SAMPLE_SUBGRAPH commands."""

    def __init__(
        self,
        sw: HostSoftware,
        nvme: NVMeInterface,
        fabric: PCIeFabric = None,
    ):
        self.sw = sw
        self.nvme = nvme
        self.fabric = fabric or PCIeFabric(PCIeParams())
        self.commands_sent = 0

    def plan_sampling(
        self, n_targets: int, granularity: int
    ) -> SamplingCommandPlan:
        """Plan the command stream for ``n_targets`` with coalescing
        ``granularity`` targets per NVMe command (Fig 15 x-axis)."""
        if n_targets <= 0:
            raise ConfigError("need at least one target")
        if granularity <= 0:
            raise ConfigError("granularity must be positive")
        n_commands = -(-n_targets // granularity)
        host_time = 0.0
        nsconfig_bytes = 0
        transfer_s = 0.0
        for cmd_idx in range(n_commands):
            targets = min(
                granularity, n_targets - cmd_idx * granularity
            )
            payload = nsconfig_wire_bytes(targets)
            command = NVMeCommand(
                opcode=NVMeOpcode.SAMPLE_SUBGRAPH,
                nsconfig_bytes=payload,
            )
            host_time += self.sw.ioctl_cost()
            host_time += self.nvme.command_cost_s(command)
            host_time += self.nvme.dma_setup_s()
            transfer_s += self.fabric.host_transfer_time(payload)
            nsconfig_bytes += payload
        self.commands_sent += n_commands
        return SamplingCommandPlan(
            n_commands=n_commands,
            host_time_s=host_time,
            nsconfig_bytes=nsconfig_bytes,
            nsconfig_transfer_s=transfer_s,
        )
