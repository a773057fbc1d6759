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
The built-in designs (the paper's seven, the GIDS and the sharded ones)
register when :mod:`repro.core.systems` is imported.  Names, clashes,
removal and lookup follow :class:`repro.registry.Registry`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.registry import Registry

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


_DESIGNS = Registry("design", DesignEntry, ("repro.core.systems",))


def register_design(
    name: str,
    *,
    ssd_backed: bool = False,
    description: str = "",
    replace: bool = False,
) -> Callable:
    """Decorator registering ``fn`` as the builder for design ``name``."""
    return _DESIGNS.register(
        name, description=description, replace=replace,
        ssd_backed=ssd_backed,
    )


unregister_design = _DESIGNS.unregister
available_designs = _DESIGNS.names
design_entry = _DESIGNS.entry


def is_ssd_backed(name: str) -> bool:
    """Whether ``name``'s graph data lives on the SSD."""
    return design_entry(name).ssd_backed
