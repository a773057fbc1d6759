"""GIDS design points: GPU-initiated direct storage access engines.

Two registered designs put the GPU, not the host or the SSD, in charge
of storage reads (the GIDS/BaM counterpoint to SmartSAGE's in-storage
offload; see :mod:`repro.storage.gids` for the device model):

``gids-baseline``
    every edge-list extent and feature page is a GPU-initiated NVMe
    read, DMA-ed over the PCIe BAR straight into GPU HBM -- no host
    page cache, no bounce buffer, no GPU-side cache.
``gids-cached``
    adds the GPU-HBM software page cache for feature pages (sized by
    ``gpu_cache_mb``), so re-referenced feature rows of hub nodes are
    served at HBM speed instead of re-reading flash.

Both read *features from storage* by construction (``features_in_dram``
is ignored): storage-offloaded feature aggregation is the workload this
design point exists for.  They pair naturally with ``mode="gids"``
(:mod:`repro.pipeline.backends.gids`), which also skips the host->GPU
feature copy, but run under every other backend too.
"""

from __future__ import annotations

import numpy as np

from repro.api.registry import register_design
from repro.core.accounting import BatchCost, SamplingWorkload
from repro.core.feature_engines import FeatureEngineBase
from repro.core.sampling_engines import SamplingEngineBase
from repro.core.systems import DesignContext, TrainingSystem
from repro.graph.layout import EdgeListLayout, FeatureTableLayout
from repro.host.direct_io import align_up
from repro.host.mmap_io import expand_extents
from repro.storage.gids import GIDSController

__all__ = [
    "GIDS_DESIGNS",
    "GIDSSamplingEngine",
    "GIDSFeatureEngine",
]

#: the registered GPU-initiated design points
GIDS_DESIGNS = ("gids-baseline", "gids-cached")


def _gids_state(controller: GIDSController, runtime):
    """The runtime's GIDS contention state (attached on first use).

    ``TrainingSystem.attach`` pre-builds it for GIDS designs; the
    fallback covers hand-wired systems and keeps one state per runtime.
    """
    state = runtime.gids_state
    if state is None:
        state = controller.attach(runtime.sim, runtime.ssd_state)
        runtime.gids_state = state
    return state


class GIDSSamplingEngine(SamplingEngineBase):
    """Neighbor sampling over GPU-initiated edge-list reads.

    Per hop, every frontier node's neighbor-list extent is one
    LBA-aligned read submitted from the GPU (warp-granular doorbells)
    and DMA-ed over the BAR; sampling itself then runs at HBM speed and
    is priced into the GPU's training kernel, exactly as GIDS folds
    sampling into device kernels.
    """

    design = "gids"

    def __init__(self, controller: GIDSController, layout: EdgeListLayout):
        self.controller = controller
        self.layout = layout
        self.lba_bytes = controller.ssd.hw.ssd.lba_bytes

    def _hop_reads(self, targets: np.ndarray) -> np.ndarray:
        """LBA-aligned read sizes for one hop (empty lists skipped)."""
        nbytes = self.layout.node_bytes(targets)
        return align_up(nbytes[nbytes > 0], self.lba_bytes)

    def batch_cost(self, workload: SamplingWorkload) -> BatchCost:
        cost = BatchCost(design=self.design)
        for targets in workload.hop_targets:
            read_bytes = self._hop_reads(targets)
            n = int(read_bytes.size)
            if n == 0:
                continue
            cost.add("gpu_submit", self.controller.submission_cost(n))
            cost.add(
                "device_read",
                float(
                    self.controller.direct_read_latency_batch(
                        read_bytes
                    ).sum()
                ),
            )
            cost.bytes_from_ssd += int(read_bytes.sum())
            cost.requests += n
        return cost

    def batch_process(self, runtime, workload: SamplingWorkload):
        state = _gids_state(self.controller, runtime)
        for targets in workload.hop_targets:
            read_bytes = self._hop_reads(targets)
            if read_bytes.size:
                yield from state.gpu_read_sequence(
                    int(read_bytes.size), float(read_bytes.mean())
                )


class GIDSFeatureEngine(FeatureEngineBase):
    """Feature gathers as GPU-initiated page reads, optionally cached.

    Input-node feature rows are resolved to LBA-sized pages of the
    feature table; pages resident in the cache hierarchy cost their
    tier's hit service (HBM lookup, NVLink peer pull, UVA PCIe read),
    and only pages missing every tier are direct SSD->GPU reads.  Page
    granularity means co-located rows share fetches, which is where
    the cache's hub-node hit rate comes from.
    """

    design = "gids"

    def __init__(
        self, controller: GIDSController, layout: FeatureTableLayout
    ):
        self.controller = controller
        self.layout = layout
        self.lba_bytes = layout.lba_bytes

    def _plan(self, nodes: np.ndarray):
        """(miss pages, per-tier hit costs) for one feature-row batch.

        The second element is a tuple of ``(component, n_hits,
        cost_s)`` per cache level that served hits -- empty when the
        design is uncached.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.size == 0:
            return 0, ()
        first, counts = self.layout.row_blocks(nodes)
        pages = np.unique(expand_extents(first, counts))
        cache = self.controller.cache
        if cache is None:
            return int(pages.size), ()
        look = cache.lookup(pages)
        return look.misses, look.hit_costs()

    def batch_cost(self, nodes: np.ndarray) -> BatchCost:
        misses, hit_costs = self._plan(nodes)
        cost = BatchCost(design=self.design)
        for component, _n_hits, cost_s in hit_costs:
            cost.add(component, cost_s)
        if misses:
            cost.add(
                "gpu_submit", self.controller.submission_cost(misses)
            )
            read_bytes = np.full(misses, self.lba_bytes, dtype=np.int64)
            cost.add(
                "device_read",
                float(
                    self.controller.direct_read_latency_batch(
                        read_bytes
                    ).sum()
                ),
            )
        cost.bytes_from_ssd += misses * self.lba_bytes
        cost.requests += misses
        return cost

    def batch_process(self, runtime, nodes: np.ndarray):
        state = _gids_state(self.controller, runtime)
        misses, hit_costs = self._plan(nodes)
        yield from state.cache_service(hit_costs)
        if misses:
            yield from state.gpu_read_sequence(
                misses, float(self.lba_bytes)
            )


def _build_gids(ctx: DesignContext, cached: bool) -> TrainingSystem:
    ssd = ctx.make_ssd()
    controller = GIDSController(
        ssd, cache=ctx.feature_cache() if cached else None
    )
    return ctx.make_system(
        ssd=ssd,
        gids=controller,
        sampling_engine=GIDSSamplingEngine(controller, ctx.edge_layout),
        feature_engine=GIDSFeatureEngine(controller, ctx.feature_layout),
    )


@register_design(
    "gids-baseline", ssd_backed=True,
    description="GPU-initiated direct storage reads (no GPU cache)",
)
def _build_gids_baseline(ctx: DesignContext) -> TrainingSystem:
    return _build_gids(ctx, cached=False)


@register_design(
    "gids-cached", ssd_backed=True,
    description="GPU-initiated reads + GPU-HBM software feature cache",
)
def _build_gids_cached(ctx: DesignContext) -> TrainingSystem:
    return _build_gids(ctx, cached=True)
