"""Benchmark subsystem: a registry plus a BENCH_*.json-writing harness.

Benchmarks are registered callables (``@register_benchmark``, one
:class:`repro.registry.Registry` like the design, backend, experiment
and cache-policy registries); the harness runs them
(``python -m repro bench``) and writes one ``BENCH_<name>.json`` per
benchmark with throughput, per-stage breakdown, the scalar-reference
comparison, and machine + git provenance.  ``--baseline DIR`` compares
a fresh run against checked-in artifacts and flags regressions.
"""

from repro.perf.harness import (
    SCHEMA,
    BenchContext,
    BenchResult,
    Regression,
    compare_to_baseline,
    git_info,
    load_baseline,
    machine_info,
    run_benchmark,
    run_benchmarks,
    write_result,
)
from repro.perf.registry import (
    BenchmarkEntry,
    available_benchmarks,
    benchmark_entry,
    benchmarks_with_tag,
    register_benchmark,
    unregister_benchmark,
)

__all__ = [
    "SCHEMA",
    "BenchmarkEntry",
    "register_benchmark",
    "unregister_benchmark",
    "available_benchmarks",
    "benchmark_entry",
    "benchmarks_with_tag",
    "BenchContext",
    "BenchResult",
    "Regression",
    "run_benchmark",
    "run_benchmarks",
    "write_result",
    "load_baseline",
    "compare_to_baseline",
    "machine_info",
    "git_info",
]
