"""GPU-initiated direct-access backend (``mode="gids"``).

The data-preparation "producers" here are GPU fetch kernels, not host
threads: they submit NVMe reads from GPU-resident queue pairs
(:mod:`repro.storage.gids`) and the payloads DMA over the PCIe BAR
straight into GPU HBM.  The pipeline itself is the no-axes topology
engine (:mod:`repro.pipeline.engine`, the ``event`` preset); two things
differ around it:

* ``RunSpec.qp_depth`` bounds the in-flight warp submissions device
  wide -- a shallow queue pair serializes concurrent fetch kernels on
  the storage path exactly as a small GPU-resident queue would;
* the consumer's host->GPU copy shrinks to the subgraph structure
  only: feature bytes are already resident in HBM when training
  starts, which is the bounce-buffer bypass paying off end to end.

``backend_stats`` reports the BAR traffic, the host-DRAM bounce bytes
that traffic avoided, the doorbell count, and the GPU software cache
hit rate -- the quantities a GIDS-vs-ISP comparison turns on.
"""

from __future__ import annotations

import dataclasses

from repro.errors import ConfigError
from repro.pipeline.backends.base import ExecutionRequest, PipelineResult
from repro.pipeline.backends.registry import register_backend
from repro.pipeline.engine import TopologyEngine

__all__ = []


class _ResidentFeatureGPU:
    """GPU model proxy: features are already in HBM via BAR reads, so
    only the sampled subgraph structure crosses the host->GPU link."""

    def __init__(self, gpu):
        self._gpu = gpu

    def transfer_time(self, workload) -> float:
        return self._gpu.fabric.gpu_transfer_time(workload.subgraph_bytes)

    def train_time(self, workload) -> float:
        return self._gpu.train_time(workload)


@register_backend(
    "gids",
    description="GPU-initiated direct storage access (GIDS-style)",
)
def _plan_gids(request: ExecutionRequest) -> PipelineResult:
    system = request.base_system()
    controller = getattr(system, "gids", None)
    if controller is None:
        raise ConfigError(
            f"mode='gids' needs a design with a GPU-initiated access "
            f"path (got {system.design!r}); use 'gids-baseline' or "
            "'gids-cached', or register a design whose system carries "
            "a GIDSController"
        )
    qp_depth = request.spec.qp_depth
    controller.qp_depth = qp_depth
    # Stats below are deltas: warm-up batch_cost calls already moved
    # BAR bytes through the controller's lifetime counters.
    bar_bytes0 = controller.traffic.bar_bytes
    doorbells0 = controller.queues.doorbells_rung
    cache = controller.cache
    cache_hits0 = cache.hits if cache else 0
    cache_misses0 = cache.misses if cache else 0
    tiers = (
        cache.tiers
        if request.spec.system.cache_tiers is not None
        and cache is not None
        else ()
    )
    tier_hits0 = [(t.hits, t.hit_bytes) for t in tiers]

    result = TopologyEngine(
        dataclasses.replace(request, gpu=_ResidentFeatureGPU(request.gpu))
    ).run()

    bar_bytes = controller.traffic.bar_bytes - bar_bytes0
    hits = (cache.hits - cache_hits0) if cache else 0
    misses = (cache.misses - cache_misses0) if cache else 0
    accesses = hits + misses
    # Per-tier counters only when the spec opted into a cache stack;
    # the default config keeps the legacy stat keys byte-identical.
    tier_stats = {}
    for tier, (h0, b0) in zip(tiers, tier_hits0):
        tier_stats[f"cache_{tier.name}_hits"] = float(tier.hits - h0)
        tier_stats[f"cache_{tier.name}_hit_bytes"] = float(
            tier.hit_bytes - b0
        )
    if tiers:
        tier_stats["cache_misses"] = float(misses)
    result.backend_stats = {
        "qp_depth": float(qp_depth),
        "bar_bytes": float(bar_bytes),
        "bounce_bytes_avoided": float(bar_bytes),
        "doorbells": float(controller.queues.doorbells_rung - doorbells0),
        "gpu_cache_hit_rate": hits / accesses if accesses else 0.0,
        **tier_stats,
        **result.backend_stats,
    }
    return result
