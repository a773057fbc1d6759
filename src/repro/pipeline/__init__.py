"""Producer-consumer training pipeline (Fig 4) with GPU idle accounting.

One :class:`ProducerPool` and one :class:`GPUConsumer` make up the
pipeline; :mod:`repro.pipeline.engine` replicates them over a topology
of device groups, and the ``event``, ``sharded``, ``distributed``,
``async`` and ``gids`` modes are presets of that one engine.
``run_pipeline`` takes one :class:`ExecutionRequest` (a
:class:`~repro.api.spec.RunSpec` plus the GPU model, workloads and
graph it materialized; usually ``Session.request``), validates its
spec and dispatches ``spec.mode`` through the backend registry
(:mod:`repro.pipeline.backends`), so those presets, the closed-form
``analytic`` faces and any third-party ``@register_backend`` mode
share one entry point.
"""

from repro.pipeline.backends import (
    BackendEntry,
    ExecutionRequest,
    available_backends,
    backend_entry,
    register_backend,
    unregister_backend,
)
from repro.pipeline.consumer import GPUConsumer
from repro.pipeline.gpu import GPUModel
from repro.pipeline.producer import ProducerPool
from repro.pipeline.runner import PipelineResult, run_pipeline
from repro.pipeline.timeline import PhaseAccumulator, Span
from repro.pipeline.workqueue import WorkItem, WorkQueue

__all__ = [
    "GPUModel",
    "WorkQueue",
    "WorkItem",
    "ProducerPool",
    "GPUConsumer",
    "PhaseAccumulator",
    "Span",
    "run_pipeline",
    "PipelineResult",
    "ExecutionRequest",
    "BackendEntry",
    "register_backend",
    "unregister_backend",
    "available_backends",
    "backend_entry",
]
