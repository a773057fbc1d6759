"""Design-point assembly: wire a full training system per Fig 18 bar.

Each design point is a builder function registered with the pluggable
registry in :mod:`repro.api.registry`; ``build_system`` validates one
:class:`~repro.api.spec.SystemSpec`, wraps it in a
:class:`DesignContext`, and dispatches to the registered builder.  The
seven paper designs:

========================  ====================================================
design                    meaning
========================  ====================================================
``dram``                  oracular infinite-DRAM in-memory baseline
``pmem``                  Intel Optane DC PMEM on the memory bus
``ssd-mmap``              baseline SSD-centric system (mmap + OS page cache)
``smartsage-sw``          direct I/O + scratchpad + coalesced driver, host
                          sampling
``smartsage-hwsw``        full ISP offload of neighbor sampling
``smartsage-oracle``      ISP with dedicated Newport-class cores
``fpga-csd``              SmartSSD-style FPGA CSD (two-step P2P transfer)
========================  ====================================================

Third-party designs register via ``@register_design("name")`` without
touching this module (see :mod:`repro.api`); the scale-out shard-local
designs live in :mod:`repro.core.sharded_designs`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.api.registry import design_entry, register_design
from repro.config import HardwareParams, default_hardware
from repro.core.feature_engines import (
    DirectIOFeatureEngine,
    DRAMFeatureEngine,
    MmapFeatureEngine,
    PMEMFeatureEngine,
)
from repro.core.fpga_csd import FPGACSDSamplingEngine
from repro.core.sampling_engines import (
    DirectIOSamplingEngine,
    DRAMSamplingEngine,
    ISPSamplingEngine,
    MmapSamplingEngine,
    PMEMSamplingEngine,
)
from repro.errors import ConfigError
from repro.graph.datasets import GraphDataset
from repro.graph.layout import EdgeListLayout, FeatureTableLayout
from repro.host.driver import SmartSAGEDriver
from repro.host.pagecache import OSPageCache
from repro.host.scratchpad import Scratchpad
from repro.host.syscall import HostSoftware
from repro.pipeline.gpu import GPUModel
from repro.sim.engine import Simulator
from repro.sim.resources import Resource
from repro.storage.pagebuffer import PageBuffer
from repro.storage.ssd import SSDevice

if TYPE_CHECKING:
    from repro.api.spec import SystemSpec

__all__ = [
    "DESIGNS",
    "SSD_DESIGNS",
    "DesignContext",
    "SystemRuntime",
    "TrainingSystem",
    "build_system",
    "build_gpu_model",
]

#: the paper's seven design points (the registry may hold more)
DESIGNS = (
    "dram",
    "pmem",
    "ssd-mmap",
    "smartsage-sw",
    "smartsage-hwsw",
    "smartsage-oracle",
    "fpga-csd",
)
#: paper designs whose graph data lives on the SSD
SSD_DESIGNS = (
    "ssd-mmap", "smartsage-sw", "smartsage-hwsw",
    "smartsage-oracle", "fpga-csd",
)


@dataclass
class SystemRuntime:
    """Shared DES resources for one simulation of one system."""

    sim: Simulator
    ssd_state: Optional[object]
    pagecache_lock: Resource
    #: GIDS contention state (queue-pair slots, BAR link) for designs
    #: carrying a :class:`~repro.storage.gids.GIDSController`
    gids_state: Optional[object] = None


@dataclass
class TrainingSystem:
    """A fully wired design point."""

    design: str
    hw: HardwareParams
    sampling_engine: object
    feature_engine: object
    ssd: Optional[SSDevice] = None
    edge_layout: Optional[EdgeListLayout] = None
    feature_layout: Optional[FeatureTableLayout] = None
    #: GPU-initiated access path (GIDS designs only)
    gids: Optional[object] = None

    def attach(self, sim: Simulator, faults=None) -> SystemRuntime:
        ssd_state = (
            self.ssd.attach(sim, faults=faults) if self.ssd else None
        )
        return SystemRuntime(
            sim=sim,
            ssd_state=ssd_state,
            pagecache_lock=Resource(sim, 1, name="pagecache-lock"),
            gids_state=(
                self.gids.attach(sim, ssd_state, faults=faults)
                if self.gids else None
            ),
        )

    @property
    def uses_ssd(self) -> bool:
        return self.ssd is not None


@dataclass
class DesignContext:
    """Everything a design builder needs to assemble a system.

    Carries the validated :class:`~repro.api.spec.SystemSpec` (design
    name and every sizing knob, read as ``ctx.spec.<knob>``), the
    dataset, the hardware, the resolved fanouts and the pre-computed
    storage layouts, plus helpers for the components that several
    designs share (SSD + page buffer, host software, scratchpads, the
    in-DRAM feature path).  Builders registered with
    ``@register_design`` receive one of these and return a
    :class:`TrainingSystem`.
    """

    spec: "SystemSpec"
    dataset: GraphDataset
    hw: HardwareParams
    #: ``spec.fanouts``, or the hardware workload's when unset
    fanouts: tuple = field(init=False)
    edge_layout: EdgeListLayout = field(init=False)
    feature_layout: FeatureTableLayout = field(init=False)

    def __post_init__(self) -> None:
        self.fanouts = tuple(self.spec.fanouts or self.hw.workload.fanouts)
        self.edge_layout = EdgeListLayout(
            self.dataset.graph,
            id_bytes=self.hw.workload.edge_id_bytes,
            lba_bytes=self.hw.ssd.lba_bytes,
        )
        self.feature_layout = FeatureTableLayout(
            num_nodes=self.dataset.num_nodes,
            feature_dim=self.dataset.feature_dim,
            dtype_bytes=self.hw.workload.feature_dtype_bytes,
            lba_bytes=self.hw.ssd.lba_bytes,
            base_byte=self.edge_layout.end_byte,
        )

    @property
    def design(self) -> str:
        return self.spec.design

    # -- shared components -------------------------------------------------

    @property
    def total_bytes(self) -> int:
        return self.edge_layout.total_bytes + self.feature_layout.total_bytes

    @property
    def shard_fraction(self) -> float:
        """Fraction of the dataset one shard-local device stores."""
        return 1.0 / max(1, self.spec.n_shards * self.spec.n_hosts)

    def make_ssd(
        self,
        dedicated_isp_cores: bool = False,
        data_fraction: float = 1.0,
    ) -> SSDevice:
        """An SSD with its page buffer sized to ``spec.page_buffer_frac``.

        ``data_fraction`` sizes the buffer against a slice of the edge
        list instead of the whole (shard-local SSDs store ``1/K``).
        """
        ssd = SSDevice(self.hw, dedicated_isp_cores=dedicated_isp_cores)
        pages = max(
            16,
            int(
                self.edge_layout.total_bytes
                * data_fraction
                * self.spec.page_buffer_frac
            )
            // ssd.nand.page_bytes,
        )
        ssd.page_buffer = PageBuffer(pages)
        return ssd

    def host_software(self) -> HostSoftware:
        return HostSoftware(self.hw.hostsw)

    def page_cache(self, data_fraction: float = 1.0) -> OSPageCache:
        """OS page cache sized as ``spec.host_cache_frac`` of the dataset.

        ``data_fraction`` scopes the budget to a shard's slice (each
        shard host caches only the data it owns).
        """
        return OSPageCache(
            capacity_bytes=max(
                self.hw.ssd.lba_bytes,
                int(
                    self.total_bytes * data_fraction
                    * self.spec.host_cache_frac
                ),
            ),
            page_bytes=self.hw.ssd.lba_bytes,
        )

    def edge_scratchpad(self) -> Scratchpad:
        """User-space scratchpad for edge-list chunks (direct-I/O path)."""
        avg_chunk = max(
            self.hw.ssd.lba_bytes,
            int(
                self.dataset.graph.average_degree
                * self.hw.workload.edge_id_bytes
            ),
        )
        return Scratchpad(
            capacity_bytes=max(
                avg_chunk,
                int(
                    self.edge_layout.total_bytes
                    * self.spec.host_cache_frac
                ),
            ),
            avg_entry_bytes=avg_chunk,
        )

    def feature_scratchpad(self) -> Scratchpad:
        return Scratchpad(
            capacity_bytes=max(
                self.feature_layout.row_bytes,
                int(
                    self.feature_layout.total_bytes
                    * self.spec.host_cache_frac
                ),
            ),
            avg_entry_bytes=max(
                self.hw.ssd.lba_bytes, self.feature_layout.row_bytes
            ),
        )

    def dram_feature_engine(self) -> DRAMFeatureEngine:
        return DRAMFeatureEngine(self.hw, self.feature_layout.row_bytes)

    def feature_page_priority(self):
        """Feature-table pages by descending owner-node degree.

        Static pinning input: pages of the hottest (highest-degree)
        nodes first, deduplicated in first-occurrence order so shared
        pages rank by their hottest resident row.
        """
        import numpy as np

        from repro.host.mmap_io import expand_extents

        order = np.argsort(
            -self.dataset.graph.degrees(), kind="stable"
        ).astype(np.int64)
        first, counts = self.feature_layout.row_blocks(order)
        pages = expand_extents(first, counts)
        _uniq, idx = np.unique(pages, return_index=True)
        return pages[np.sort(idx)]

    def feature_cache(self):
        """The GIDS feature-cache stack selected by the spec knobs.

        ``cache_tiers=None`` builds the single HBM LRU tier, priced and
        accounted exactly like the pre-refactor ``GPUFeatureCache``.
        """
        from repro.cache import build_tiered_cache

        spec = self.spec
        priority = None
        if spec.cache_policy == "static":
            priority = self.feature_page_priority()
        return build_tiered_cache(
            self.hw,
            self.hw.ssd.lba_bytes,
            tiers=spec.cache_tiers,
            policy=spec.cache_policy,
            gpu_cache_mb=spec.gpu_cache_mb,
            priority_pages=priority,
        )

    def make_system(self, sampling_engine, feature_engine,
                    ssd: Optional[SSDevice] = None,
                    gids=None) -> TrainingSystem:
        """Assemble the final :class:`TrainingSystem` for this context."""
        return TrainingSystem(
            design=self.design, hw=self.hw, ssd=ssd,
            edge_layout=self.edge_layout if ssd else None,
            feature_layout=self.feature_layout if ssd else None,
            sampling_engine=sampling_engine,
            feature_engine=feature_engine,
            gids=gids,
        )


# -- the paper's seven registered designs ----------------------------------


@register_design("dram", description="oracular in-memory DRAM baseline")
def _build_dram(ctx: DesignContext) -> TrainingSystem:
    return ctx.make_system(
        sampling_engine=DRAMSamplingEngine(ctx.hw),
        feature_engine=ctx.dram_feature_engine(),
    )


@register_design("pmem", description="Intel Optane DC PMEM on the memory bus")
def _build_pmem(ctx: DesignContext) -> TrainingSystem:
    return ctx.make_system(
        sampling_engine=PMEMSamplingEngine(ctx.hw),
        feature_engine=PMEMFeatureEngine(
            ctx.hw, ctx.feature_layout.row_bytes
        ),
    )


@register_design("ssd-mmap", ssd_backed=True,
                 description="baseline SSD system (mmap + OS page cache)")
def _build_ssd_mmap(ctx: DesignContext) -> TrainingSystem:
    ssd = ctx.make_ssd()
    sw = ctx.host_software()
    page_cache = ctx.page_cache()
    feature_engine = (
        ctx.dram_feature_engine()
        if ctx.spec.features_in_dram
        else MmapFeatureEngine(ssd, ctx.feature_layout, page_cache, sw)
    )
    return ctx.make_system(
        ssd=ssd,
        sampling_engine=MmapSamplingEngine(
            ssd, ctx.edge_layout, page_cache, sw
        ),
        feature_engine=feature_engine,
    )


def _direct_io_feature_engine(ctx: DesignContext, ssd: SSDevice, sw):
    """Feature path shared by all direct-I/O designs."""
    if ctx.spec.features_in_dram:
        return ctx.dram_feature_engine()
    return DirectIOFeatureEngine(
        ssd, ctx.feature_layout, ctx.feature_scratchpad(), sw
    )


@register_design("smartsage-sw", ssd_backed=True,
                 description="direct I/O + scratchpads, host sampling")
def _build_smartsage_sw(ctx: DesignContext) -> TrainingSystem:
    ssd = ctx.make_ssd()
    sw = ctx.host_software()
    return ctx.make_system(
        ssd=ssd,
        sampling_engine=DirectIOSamplingEngine(
            ssd, ctx.edge_layout, ctx.edge_scratchpad(), sw
        ),
        feature_engine=_direct_io_feature_engine(ctx, ssd, sw),
    )


def _build_isp(ctx: DesignContext, dedicated_cores: bool) -> TrainingSystem:
    ssd = ctx.make_ssd(dedicated_isp_cores=dedicated_cores)
    sw = ctx.host_software()
    driver = SmartSAGEDriver(sw, ssd.nvme, ssd.fabric)
    return ctx.make_system(
        ssd=ssd,
        sampling_engine=ISPSamplingEngine(
            ssd, ctx.edge_layout, driver, ctx.fanouts,
            granularity=ctx.spec.granularity,
        ),
        feature_engine=_direct_io_feature_engine(ctx, ssd, sw),
    )


@register_design("smartsage-hwsw", ssd_backed=True,
                 description="full ISP offload of neighbor sampling")
def _build_smartsage_hwsw(ctx: DesignContext) -> TrainingSystem:
    return _build_isp(ctx, dedicated_cores=False)


@register_design("smartsage-oracle", ssd_backed=True,
                 description="ISP with dedicated Newport-class cores")
def _build_smartsage_oracle(ctx: DesignContext) -> TrainingSystem:
    return _build_isp(ctx, dedicated_cores=True)


@register_design("fpga-csd", ssd_backed=True,
                 description="SmartSSD-style FPGA CSD (two-step P2P)")
def _build_fpga_csd(ctx: DesignContext) -> TrainingSystem:
    ssd = ctx.make_ssd()
    sw = ctx.host_software()
    return ctx.make_system(
        ssd=ssd,
        sampling_engine=FPGACSDSamplingEngine(ssd, ctx.edge_layout, ctx.hw),
        feature_engine=_direct_io_feature_engine(ctx, ssd, sw),
    )


# -- the public factory -----------------------------------------------------


def build_system(
    system: "SystemSpec",
    dataset: GraphDataset,
    hw: Optional[HardwareParams] = None,
) -> TrainingSystem:
    """Assemble the design point ``system`` declares, sized against
    ``dataset``.

    Validates ``system`` (:meth:`SystemSpec.validate
    <repro.api.spec.SystemSpec.validate>` is the one check of every
    sizing knob; the knobs are documented on the ``SystemSpec``
    fields), wraps it in a :class:`DesignContext`, and dispatches to
    the builder registered for ``system.design`` (any name in
    ``repro.api.available_designs()``, not just the paper's seven).
    ``hw`` defaults to ``system.build_hardware()``, the default
    hardware with the spec's overrides applied.
    """
    entry = design_entry(system.validate().design)
    ctx = DesignContext(
        spec=system,
        dataset=dataset,
        hw=hw or system.build_hardware(),
    )
    built = entry.builder(ctx)
    if not isinstance(built, TrainingSystem):
        raise ConfigError(
            f"design {system.design!r} builder returned "
            f"{type(built).__name__}, expected TrainingSystem"
        )
    return built


def build_gpu_model(
    dataset: GraphDataset, hw: Optional[HardwareParams] = None
) -> GPUModel:
    """GPU model sized for ``dataset``'s GNN (paper defaults)."""
    hw = hw or default_hardware()
    return GPUModel(
        gpu=hw.gpu,
        pcie=hw.pcie,
        feature_dim=dataset.feature_dim,
        hidden_dim=hw.workload.hidden_dim,
        num_classes=dataset.num_classes,
        feature_dtype_bytes=hw.workload.feature_dtype_bytes,
    )


# The scale-out and GIDS designs register alongside the paper's seven
# whenever the built-ins load (repro.api.registry imports this module).
import repro.core.gids_designs  # noqa: E402,F401  (registers on import)
import repro.core.sharded_designs  # noqa: E402,F401  (registers on import)
