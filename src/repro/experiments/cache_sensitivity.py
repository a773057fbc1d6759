"""Latency-vs-locality ablation: page-cache size sweep for mmap.

The paper's central software claim (Section IV): neighbor sampling is so
locality-poor that the OS page cache "is rarely useful in reducing I/O
access time" -- the right design optimizes for *latency* (direct I/O),
not *locality* (bigger caches).  This experiment sweeps the page-cache
budget from 5% to 60% of the dataset and shows that even generous caches
leave the mmap baseline far behind latency-optimized SmartSAGE(SW).
"""

from __future__ import annotations

from functools import partial

from repro.api.experiment import RunRecord, register_experiment
from repro.api.spec import SystemSpec
from repro.core.systems import build_system
from repro.experiments.common import (
    ExperimentConfig,
    make_workloads,
    scaled_instance,
    steady_state_cost,
)
from repro.experiments.report import format_table

__all__ = ["render", "CACHE_FRACS"]

CACHE_FRACS = (0.05, 0.15, 0.30, 0.60)


def _run_sweep(dataset_name: str, cfg: ExperimentConfig) -> dict:
    ds = scaled_instance(dataset_name, cfg)
    workloads = make_workloads(ds, cfg)
    mmap_ms = {}
    hit_rates = {}
    for frac in CACHE_FRACS:
        system = build_system(
            SystemSpec(
                "ssd-mmap", fanouts=cfg.fanouts, host_cache_frac=frac
            ),
            ds,
            hw=cfg.hw,
        )
        cost = steady_state_cost(
            system.sampling_engine, workloads, cfg.warmup_batches
        )
        mmap_ms[frac] = cost.total_s * 1e3
        cache = system.sampling_engine.reader.page_cache
        hit_rates[frac] = cache.hit_rate
    sw_system = build_system(
        SystemSpec("smartsage-sw", fanouts=cfg.fanouts), ds, hw=cfg.hw
    )
    sw_ms = steady_state_cost(
        sw_system.sampling_engine, workloads, cfg.warmup_batches
    ).total_s * 1e3
    return {
        "dataset": dataset_name,
        "mmap_ms": mmap_ms,
        "hit_rates": hit_rates,
        "sw_ms": sw_ms,
        "cache_fracs": CACHE_FRACS,
    }


def render(result: dict) -> str:
    rows = []
    for frac in result["cache_fracs"]:
        rows.append(
            [
                f"{frac:.0%} of dataset",
                f"{result['hit_rates'][frac]:.0%}",
                f"{result['mmap_ms'][frac]:.1f}",
                f"{result['mmap_ms'][frac] / result['sw_ms']:.2f}x",
            ]
        )
    rows.append(
        ["SmartSAGE(SW), no page cache", "-",
         f"{result['sw_ms']:.1f}", "1.00x"]
    )
    table = format_table(
        ["page-cache budget", "hit rate", "sampling ms/batch",
         "vs SmartSAGE(SW)"],
        rows,
        title=f"Cache sensitivity [{result['dataset']}]: growing the "
              "page cache cannot rescue the mmap baseline",
    )
    worst = result["mmap_ms"][result["cache_fracs"][-1]]
    note = (
        "\n=> even the largest cache leaves mmap "
        f"{worst / result['sw_ms']:.1f}x slower than latency-optimized "
        "direct I/O: optimize for latency, not locality (Section IV)."
        if worst > result["sw_ms"]
        else "\nWARNING: cache rescued mmap -- unexpected at this scale."
    )
    return table + note


def _records(result: dict) -> list:
    records = [
        RunRecord(
            experiment="cache-sensitivity",
            dataset=result["dataset"],
            design="ssd-mmap",
            params={"host_cache_frac": frac},
            metrics={
                "sampling_ms": result["mmap_ms"][frac],
                "hit_rate": result["hit_rates"][frac],
            },
        )
        for frac in result["cache_fracs"]
    ]
    records.append(
        RunRecord(
            experiment="cache-sensitivity",
            dataset=result["dataset"],
            design="smartsage-sw",
            metrics={"sampling_ms": result["sw_ms"]},
        )
    )
    return records


@register_experiment(
    "cache-sensitivity",
    figure="Latency-vs-locality ablation",
    tags=("extension", "sensitivity", "cache"),
    records=_records,
    render=render,
)
def _plan(cfg: ExperimentConfig) -> list:
    """A single unit sweeping the page-cache budget."""
    return [partial(_run_sweep, "reddit", cfg)]
