"""Pluggable design-point registry.

Design points (the bars of Fig 18) are registered builder functions
rather than branches of an if/elif chain, so new storage architectures
-- a GIDS-style GPU-initiated path, a different CSD, a sharded backend
-- plug in without touching :mod:`repro.core.systems`::

    from repro.api import register_design

    @register_design("my-csd", ssd_backed=True,
                     description="my experimental CSD")
    def _build_my_csd(ctx):
        ssd = ctx.make_ssd()
        return ctx.make_system(
            ssd=ssd,
            sampling_engine=MySamplingEngine(
                ssd, ctx.edge_layout, ctx.fanouts,
                granularity=ctx.spec.granularity,
            ),
            feature_engine=ctx.dram_feature_engine(),
        )

Builders receive a :class:`repro.core.systems.DesignContext`, which
carries:

* ``spec`` -- the validated :class:`repro.api.spec.SystemSpec`: the
  design name and every sizing knob (``ctx.spec.host_cache_frac``,
  ``ctx.spec.granularity``, ...);
* ``dataset`` and ``hw`` -- the graph dataset and the hardware;
* ``fanouts`` -- ``spec.fanouts``, or the hardware workload's default;
* ``edge_layout`` / ``feature_layout`` -- the on-device storage layouts;
* helpers for shared components (``make_ssd``, ``page_cache``,
  ``edge_scratchpad``, ``dram_feature_engine``, ``feature_cache``, ...).

They return a fully wired :class:`repro.core.systems.TrainingSystem`.
The seven paper designs are registered by ``repro.core.systems`` on
import; this module lazily imports it so ``available_designs()`` is
always complete.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.errors import ConfigError

__all__ = [
    "DesignEntry",
    "register_design",
    "unregister_design",
    "available_designs",
    "design_entry",
    "is_ssd_backed",
]


@dataclass(frozen=True)
class DesignEntry:
    """One registered design point."""

    name: str
    builder: Callable
    ssd_backed: bool = False
    description: str = ""


_REGISTRY: Dict[str, DesignEntry] = {}
_builtin_loaded = False


def _ensure_builtin() -> None:
    """Import the built-in design registrations (once, on success).

    The flag is only set after a successful import so that a transient
    import failure surfaces its real error on every call instead of
    leaving the registry silently empty for the rest of the process.
    """
    global _builtin_loaded
    if _builtin_loaded:
        return
    import repro.core.systems  # noqa: F401  (registers on import)

    _builtin_loaded = True


def register_design(
    name: str,
    *,
    ssd_backed: bool = False,
    description: str = "",
    replace: bool = False,
) -> Callable:
    """Decorator registering ``fn`` as the builder for design ``name``.

    Raises :class:`ConfigError` if ``name`` is already registered, unless
    ``replace=True`` (for deliberate overrides in experiments).
    """
    if not name or not isinstance(name, str):
        raise ConfigError(f"design name must be a non-empty string, got {name!r}")

    def decorator(fn: Callable) -> Callable:
        if name in _REGISTRY and not replace:
            raise ConfigError(
                f"design {name!r} is already registered "
                f"(by {_REGISTRY[name].builder!r}); "
                "pass replace=True to override"
            )
        _REGISTRY[name] = DesignEntry(
            name=name,
            builder=fn,
            ssd_backed=ssd_backed,
            description=description or (fn.__doc__ or "").strip().split("\n")[0],
        )
        return fn

    return decorator


def unregister_design(name: str) -> None:
    """Remove a registered design (no-op if absent)."""
    _REGISTRY.pop(name, None)


def available_designs() -> Tuple[str, ...]:
    """Names of every registered design, registration order."""
    _ensure_builtin()
    return tuple(_REGISTRY)


def design_entry(name: str) -> DesignEntry:
    """Look up one design; raise :class:`ConfigError` if unknown."""
    _ensure_builtin()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown design {name!r}; one of {tuple(_REGISTRY)}"
        ) from None


def is_ssd_backed(name: str) -> bool:
    """Whether ``name``'s graph data lives on the SSD."""
    return design_entry(name).ssd_backed
