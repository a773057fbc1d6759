"""End-to-end training pipeline runner: a thin backend dispatcher.

``run_pipeline`` executes one :class:`ExecutionRequest` -- built from a
spec by :meth:`ExecutionRequest.from_spec` or by hand -- on a
:class:`~repro.core.systems.TrainingSystem` by dispatching to the
execution backend registered for ``request.mode``
(:mod:`repro.pipeline.backends`).  ``event``, ``sharded``,
``distributed`` and ``async`` are presets of the one event-driven
topology engine (:mod:`repro.pipeline.engine`), exposing no axes, the
shards axis, the shards and hosts axes, and the prefetch axis;
``gids`` is the no-axes engine with HBM-resident features, and
``analytic`` is the paper's closed-form model.  The result carries
everything the paper's end-to-end figures report -- total time,
per-phase breakdown, and the GPU idle fraction.
"""

from __future__ import annotations

import dataclasses

from repro.errors import ConfigError
from repro.pipeline.backends.base import ExecutionRequest, PipelineResult
from repro.pipeline.backends.registry import backend_entry

__all__ = ["PipelineResult", "run_pipeline"]


def run_pipeline(
    request: ExecutionRequest,
    *,
    system=None,
    system_factory=None,
) -> PipelineResult:
    """Simulate ``request.n_batches`` of training via ``request.mode``.

    ``request.workloads`` is a pool of pre-sampled batch workloads,
    cycled if shorter than ``n_batches`` (sampling the graph itself is
    orthogonal to system timing, so reusing representative workloads
    is sound).  An unknown mode raises :class:`~repro.errors.ConfigError`
    listing the registered backends.

    ``system`` / ``system_factory`` bind the run to a system, replacing
    the request's own, so one request can run many designs.
    ``system_factory`` builds a fresh warmed system per device group so
    multi-group topologies get independent cache state per shard; when
    it is given, ``system`` may be ``None`` and backends materialize
    instances lazily.  The request itself is never modified: the run
    validates and uses a copy.
    """
    entry = backend_entry(request.mode)
    bound = dataclasses.replace(
        request,
        system=request.system if system is None else system,
        system_factory=(
            request.system_factory if system_factory is None
            else system_factory
        ),
    )
    if bound.system is None and bound.system_factory is None:
        raise ConfigError("need a system or a system_factory")
    return entry.plan(bound.validate())
