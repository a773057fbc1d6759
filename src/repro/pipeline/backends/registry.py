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
built-in backends register on first use; this module imports them
lazily so ``available_backends()`` is always complete.  They are the
closed-form ``analytic`` and ``distributed-analytic`` faces, the
presets of the one event-driven topology engine (``event``,
``sharded``, ``distributed``, ``async``;
:mod:`repro.pipeline.engine`), and ``gids`` (the no-axes engine with
HBM-resident features).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.errors import ConfigError

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


_REGISTRY: Dict[str, BackendEntry] = {}
_builtin_loaded = False
_builtin_lock = threading.RLock()
_builtin_local = threading.local()


def _ensure_builtin() -> None:
    """Import the built-in backend registrations (once, on success).

    The loaded flag is only set after a successful import so that a
    transient import failure surfaces its real error on every call
    instead of leaving the registry silently empty for the rest of the
    process.  Re-entrant calls from the *loading thread* (the built-in
    modules themselves register while importing) are no-ops via the
    thread-local flag; other threads block on the lock until the
    registry is complete (campaign workers may race here on first use).
    """
    global _builtin_loaded
    if _builtin_loaded or getattr(_builtin_local, "loading", False):
        return
    with _builtin_lock:
        if _builtin_loaded:
            return
        _builtin_local.loading = True
        try:
            import repro.pipeline.backends.analytic    # noqa: F401
            import repro.pipeline.backends.gids        # noqa: F401
            import repro.pipeline.engine               # noqa: F401
        finally:
            _builtin_local.loading = False

        _builtin_loaded = True


def register_backend(
    name: str,
    *,
    description: str = "",
    needs_graph: bool = False,
    replace: bool = False,
) -> Callable:
    """Decorator registering ``fn`` as the backend for mode ``name``.

    Raises :class:`ConfigError` if ``name`` is already registered,
    unless ``replace=True`` (for deliberate overrides in experiments).
    """
    if not name or not isinstance(name, str):
        raise ConfigError(
            f"backend name must be a non-empty string, got {name!r}"
        )
    # Load the built-ins first so colliding with one fails here, not
    # from inside a later available_backends()/backend_entry() call.
    _ensure_builtin()

    def decorator(fn: Callable) -> Callable:
        if name in _REGISTRY and not replace:
            raise ConfigError(
                f"backend {name!r} is already registered "
                f"(by {_REGISTRY[name].plan!r}); "
                "pass replace=True to override"
            )
        _REGISTRY[name] = BackendEntry(
            name=name,
            plan=fn,
            description=description
            or (fn.__doc__ or "").strip().split("\n")[0],
            needs_graph=needs_graph,
        )
        return fn

    return decorator


def unregister_backend(name: str) -> None:
    """Remove a registered backend (no-op if absent)."""
    _ensure_builtin()
    _REGISTRY.pop(name, None)


def available_backends() -> Tuple[str, ...]:
    """Names of every registered backend, registration order."""
    _ensure_builtin()
    return tuple(_REGISTRY)


def backend_entry(name: str) -> BackendEntry:
    """Look up one backend; raise :class:`ConfigError` if unknown."""
    _ensure_builtin()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown mode {name!r}; one of {tuple(_REGISTRY)}"
        ) from None
