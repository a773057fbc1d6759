"""Pluggable execution-backend registry.

Execution strategies are registered callables rather than branches of
an ``if mode == ...`` chain inside ``run_pipeline``, so new pipeline
organizations -- sharded multi-device groups, asynchronous prefetch
pipelines, GIDS-style drop-in engines -- plug in without touching
:mod:`repro.pipeline.runner`::

    from repro.pipeline.backends import register_backend

    @register_backend("my-mode", description="my execution strategy")
    def _plan_my_mode(request):
        ...
        return PipelineResult(...)

A backend is a function ``plan(request) -> PipelineResult``.  The
built-ins are the closed-form ``analytic`` and ``distributed-analytic``
faces, the presets of the one event-driven topology engine (``event``,
``sharded``, ``distributed``, ``async``; :mod:`repro.pipeline.engine`),
and ``gids`` (the no-axes engine with HBM-resident features).  Names,
clashes, removal and lookup follow :class:`repro.registry.Registry`; an
unknown mode raises ``unknown mode ...``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.registry import Registry

__all__ = [
    "BackendEntry",
    "register_backend",
    "unregister_backend",
    "available_backends",
    "backend_entry",
]


@dataclass(frozen=True)
class BackendEntry:
    """One registered execution backend."""

    name: str
    plan: Callable
    description: str = ""
    #: whether the backend needs ``request.graph`` (for K>1 sharding)
    needs_graph: bool = False


_BACKENDS = Registry("mode", BackendEntry, (
    "repro.pipeline.backends.analytic",
    "repro.pipeline.backends.gids",
    "repro.pipeline.engine",
))


def register_backend(
    name: str,
    *,
    description: str = "",
    needs_graph: bool = False,
    replace: bool = False,
) -> Callable:
    """Decorator registering ``fn`` as the backend for mode ``name``."""
    return _BACKENDS.register(
        name, description=description, replace=replace,
        needs_graph=needs_graph,
    )


unregister_backend = _BACKENDS.unregister
available_backends = _BACKENDS.names
backend_entry = _BACKENDS.entry
