"""Sharded design points: shard-local device stacks for ``mode="sharded"``.

Two registered designs pair with the ``sharded`` preset of the
topology engine (:mod:`repro.pipeline.engine`):

``smartsage-sharded``
    SmartSAGE(HW/SW) per shard -- each shard-local CSD runs the ISP
    neighbor-sampling offload over its slice of the edge list.
``baseline-sharded``
    the mmap/page-cache baseline per shard -- a conventional SSD node
    group, the scale-out control arm.

Both size per-shard components (SSD page buffer, OS page cache) against
the ``1/K`` slice that shard stores, via ``DesignContext.shard_fraction``
(from the spec's ``n_shards`` and ``n_hosts``).
They build and run fine under the single-device modes too (``K=1``
makes them identical to their paper counterparts).
"""

from __future__ import annotations

from repro.api.registry import register_design
from repro.core.sampling_engines import ISPSamplingEngine, MmapSamplingEngine
from repro.core.systems import (
    DesignContext,
    TrainingSystem,
    _direct_io_feature_engine,
)
from repro.host.driver import SmartSAGEDriver

__all__ = ["SHARDED_DESIGNS"]

#: the registered scale-out design points
SHARDED_DESIGNS = ("smartsage-sharded", "baseline-sharded")


@register_design(
    "smartsage-sharded", ssd_backed=True,
    description="ISP offload on K shard-local CSDs (mode='sharded')",
)
def _build_smartsage_sharded(ctx: DesignContext) -> TrainingSystem:
    frac = ctx.shard_fraction
    ssd = ctx.make_ssd(data_fraction=frac)
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


@register_design(
    "baseline-sharded", ssd_backed=True,
    description="mmap baseline on K shard-local SSDs (mode='sharded')",
)
def _build_baseline_sharded(ctx: DesignContext) -> TrainingSystem:
    frac = ctx.shard_fraction
    ssd = ctx.make_ssd(data_fraction=frac)
    sw = ctx.host_software()
    page_cache = ctx.page_cache(data_fraction=frac)
    feature_engine = (
        ctx.dram_feature_engine()
        if ctx.spec.features_in_dram
        else _direct_io_feature_engine(ctx, ssd, sw)
    )
    return ctx.make_system(
        ssd=ssd,
        sampling_engine=MmapSamplingEngine(
            ssd, ctx.edge_layout, page_cache, sw
        ),
        feature_engine=feature_engine,
    )
