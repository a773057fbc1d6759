"""End-to-end training pipeline runner: a thin backend dispatcher.

``run_pipeline`` executes ``n_batches`` of GNN training on a
:class:`~repro.core.systems.TrainingSystem` by dispatching to the
execution backend registered for ``mode``
(:mod:`repro.pipeline.backends`).  ``event``, ``sharded`` and
``distributed`` are presets of the one event-driven topology engine
(:mod:`repro.pipeline.engine`), exposing no axes, the shards axis, and
the shards and hosts axes; ``gids`` is the no-axes engine with
HBM-resident features, ``async`` overlaps the preparation stages with
bounded prefetch, and ``analytic`` is the paper's closed-form model.
The result carries everything the paper's end-to-end figures report
-- total time, per-phase breakdown, and the GPU idle fraction.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.accounting import SamplingWorkload
from repro.pipeline.backends.base import ExecutionRequest, PipelineResult
from repro.pipeline.backends.registry import backend_entry

__all__ = ["PipelineResult", "run_pipeline"]


def run_pipeline(
    system,
    gpu,
    workloads: List[SamplingWorkload],
    n_batches: int,
    n_workers: int,
    mode: str = "event",
    queue_depth: int = 4,
    checkpoint_every: int = 0,
    checkpoint_bytes: int = 0,
    n_shards: int = 1,
    n_hosts: int = 1,
    fabric: str = "rack",
    partition: str = "edge-cut",
    prefetch_depth: int = 2,
    qp_depth: int = 64,
    graph: Optional[object] = None,
    system_factory=None,
    faults=None,
    cache_tiers: Optional[tuple] = None,
    cache_policy: Optional[str] = None,
) -> PipelineResult:
    """Simulate ``n_batches`` of training on ``system`` via ``mode``.

    ``workloads`` is a pool of pre-sampled batch workloads, cycled if
    shorter than ``n_batches`` (sampling the graph itself is orthogonal
    to system timing, so reusing representative workloads is sound).
    ``checkpoint_every``/``checkpoint_bytes`` enable periodic model
    checkpoints to the SSD (event-style modes, SSD-backed designs only).

    ``mode`` is any name in
    :func:`repro.pipeline.backends.available_backends`; an unknown mode
    raises :class:`~repro.errors.ConfigError` listing the registered
    backends.  ``n_shards``/``partition``/``graph`` feed the shards
    axis (``sharded``, ``distributed``), ``n_hosts``/``fabric`` the
    hosts axis (``distributed``), ``prefetch_depth`` the ``async``
    backend, ``qp_depth`` the ``gids`` backend; a mode that does not
    expose an axis ignores its knobs.  ``system_factory`` (optional)
    builds a fresh warmed system per device group so multi-group
    topologies get independent cache state per shard; when it is given,
    ``system`` may be ``None`` and backends materialize instances
    lazily.
    ``faults`` (optional :class:`~repro.faults.FaultPlan`) injects
    deterministic storage/fabric/host faults into the event-driven
    backends; closed-form modes reject it at spec validation.
    ``cache_tiers``/``cache_policy`` (optional, see :mod:`repro.cache`)
    select the feature-cache stack: the ``gids`` backend reports
    per-tier stats for its GPU-side stack, and multi-group ``sharded``
    / ``distributed`` runs put a host/peer cache in front of
    cross-shard feature reads.  ``None`` keeps every backend's legacy
    behavior byte-identical.
    """
    entry = backend_entry(mode)
    request = ExecutionRequest(
        system=system,
        gpu=gpu,
        workloads=workloads,
        n_batches=n_batches,
        n_workers=n_workers,
        queue_depth=queue_depth,
        checkpoint_every=checkpoint_every,
        checkpoint_bytes=checkpoint_bytes,
        n_shards=n_shards,
        n_hosts=n_hosts,
        fabric=fabric,
        partition=partition,
        prefetch_depth=prefetch_depth,
        qp_depth=qp_depth,
        graph=graph,
        system_factory=system_factory,
        faults=faults,
        cache_tiers=cache_tiers,
        cache_policy=cache_policy,
    ).validate()
    return entry.plan(request)
