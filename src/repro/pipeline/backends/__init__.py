"""Pluggable execution backends for the training pipeline.

``run_pipeline`` dispatches one :class:`ExecutionRequest` through this
package's registry on its spec's ``mode``.  The event-driven ``event``,
``sharded``, ``distributed`` and ``async`` modes are presets of one
topology engine (:mod:`repro.pipeline.engine`) that differ only in the
axes they expose; ``gids`` runs that engine with HBM-resident features,
and ``analytic`` / ``distributed-analytic`` are the closed-form faces.
Third parties add modes with ``@register_backend("name")`` without
touching :mod:`repro.pipeline.runner`.
"""

from repro.pipeline.backends.base import (
    ExecutionRequest,
    PipelineResult,
)
from repro.pipeline.backends.registry import (
    BackendEntry,
    available_backends,
    backend_entry,
    register_backend,
    unregister_backend,
)

__all__ = [
    "ExecutionRequest",
    "PipelineResult",
    "BackendEntry",
    "register_backend",
    "unregister_backend",
    "available_backends",
    "backend_entry",
]
