"""Pluggable benchmark registry.

Benchmarks are registered callables rather than a hard-coded list, so a
new subsystem ships its own benchmark without touching the harness::

    from repro.perf import register_benchmark

    @register_benchmark("my-kernel", tags=("micro",),
                        description="my kernel vs its reference")
    def _bench_my_kernel(ctx):
        ...
        return ctx.result(ops=n, elapsed_s=t, reference_s=t_ref)

A benchmark receives a :class:`repro.perf.harness.BenchContext` (scale
selection, timing helpers) and returns the dict built by
``ctx.result``.  The built-ins register in :mod:`repro.perf.benchmarks`;
names, clashes, removal and lookup follow
:class:`repro.registry.Registry`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

from repro.registry import Registry

__all__ = [
    "BenchmarkEntry",
    "register_benchmark",
    "unregister_benchmark",
    "available_benchmarks",
    "benchmark_entry",
    "benchmarks_with_tag",
]


@dataclass(frozen=True)
class BenchmarkEntry:
    """One registered benchmark."""

    name: str
    fn: Callable
    description: str = ""
    #: free-form labels (``micro``/``macro`` plus the subsystem name)
    tags: Tuple[str, ...] = ()


_BENCHMARKS = Registry(
    "benchmark", BenchmarkEntry, ("repro.perf.benchmarks",)
)


def register_benchmark(
    name: str,
    *,
    description: str = "",
    tags: Tuple[str, ...] = (),
    replace: bool = False,
) -> Callable:
    """Decorator registering ``fn`` as benchmark ``name``."""
    return _BENCHMARKS.register(
        name, description=description, replace=replace, tags=tuple(tags)
    )


unregister_benchmark = _BENCHMARKS.unregister
available_benchmarks = _BENCHMARKS.names
benchmark_entry = _BENCHMARKS.entry
benchmarks_with_tag = _BENCHMARKS.with_tag
