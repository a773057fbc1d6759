"""Ablations of SmartSAGE's individual design choices.

The paper motivates three co-designed mechanisms (Section VI-A: "1)
direct I/O, 2) I/O command coalescing, and 3) ISP acceleration") plus
two supporting structures (the user-space scratchpad and the SSD's DRAM
page buffer).  Each ablation removes exactly one and measures the
single-worker sampling cost, so every mechanism's contribution is
attributable.
"""

from __future__ import annotations

from functools import partial

from repro.api.experiment import RunRecord, register_experiment
from repro.core.sampling_engines import DirectIOSamplingEngine
from repro.experiments.common import (
    ExperimentConfig,
    build_eval_system,
    make_workloads,
    scaled_instance,
    steady_state_cost,
)
from repro.experiments.report import format_table
from repro.storage.pagebuffer import PageBuffer

__all__ = ["render"]


def _run_ladder(dataset_name: str, cfg: ExperimentConfig) -> dict:
    ds = scaled_instance(dataset_name, cfg)
    workloads = make_workloads(ds, cfg)
    variants = {}

    # Baselines that anchor the ablation ladder.
    variants["ssd-mmap (baseline)"] = steady_state_cost(
        build_eval_system("ssd-mmap", ds, cfg).sampling_engine,
        workloads, cfg.warmup_batches,
    ).total_s

    # (a) direct I/O without the user-space scratchpad.
    sw_system = build_eval_system("smartsage-sw", ds, cfg)
    no_scratch = DirectIOSamplingEngine(
        sw_system.ssd, sw_system.edge_layout, scratchpad=None,
        sw=sw_system.sampling_engine.sw,
    )
    variants["SW without scratchpad"] = steady_state_cost(
        no_scratch, workloads, cfg.warmup_batches
    ).total_s

    # (b) full SmartSAGE(SW): direct I/O + scratchpad.
    variants["SW (direct I/O + scratchpad)"] = steady_state_cost(
        build_eval_system("smartsage-sw", ds, cfg).sampling_engine,
        workloads, cfg.warmup_batches,
    ).total_s

    # (c) ISP without command coalescing (one command per target).
    variants["HW/SW without coalescing"] = steady_state_cost(
        build_eval_system(
            "smartsage-hwsw", ds, cfg, granularity=1
        ).sampling_engine,
        workloads, cfg.warmup_batches,
    ).total_s

    # (d) ISP with a minimal device page buffer (no hub-page reuse).
    tiny_buffer = build_eval_system("smartsage-hwsw", ds, cfg)
    tiny_buffer.ssd.page_buffer = PageBuffer(capacity_pages=1)
    variants["HW/SW with 1-page buffer"] = steady_state_cost(
        tiny_buffer.sampling_engine, workloads, cfg.warmup_batches
    ).total_s

    # (e) full SmartSAGE(HW/SW).
    variants["HW/SW (full)"] = steady_state_cost(
        build_eval_system("smartsage-hwsw", ds, cfg).sampling_engine,
        workloads, cfg.warmup_batches,
    ).total_s

    mmap = variants["ssd-mmap (baseline)"]
    return {
        "dataset": dataset_name,
        "variants_ms": {k: v * 1e3 for k, v in variants.items()},
        "speedups": {k: mmap / v for k, v in variants.items()},
    }


def render(result: dict) -> str:
    rows = [
        [name, f"{ms:.2f}", f"{result['speedups'][name]:.2f}x"]
        for name, ms in result["variants_ms"].items()
    ]
    table = format_table(
        ["variant", "sampling ms/batch", "vs mmap"],
        rows,
        title=f"Ablations [{result['dataset']}]: each SmartSAGE design "
              "choice removed in isolation",
    )
    s = result["speedups"]
    checks = [
        ("scratchpad helps",
         s["SW (direct I/O + scratchpad)"]
         >= s["SW without scratchpad"] * 0.99),
        ("coalescing helps",
         s["HW/SW (full)"] > s["HW/SW without coalescing"]),
        ("page buffer helps",
         s["HW/SW (full)"] >= s["HW/SW with 1-page buffer"] * 0.99),
    ]
    notes = "\n".join(
        f"  [{'ok' if passed else 'FAIL'}] {label}"
        for label, passed in checks
    )
    return table + "\n" + notes


def _records(result: dict) -> list:
    return [
        RunRecord(
            experiment="ablations",
            dataset=result["dataset"],
            params={"variant": variant},
            metrics={
                "sampling_ms": ms,
                "speedup_vs_mmap": result["speedups"][variant],
            },
        )
        for variant, ms in result["variants_ms"].items()
    ]


@register_experiment(
    "ablations",
    figure="Design-choice ablations",
    tags=("extension", "ablation"),
    records=_records,
    render=render,
)
def _plan(cfg: ExperimentConfig) -> list:
    """A single unit running the full ablation ladder (shared state)."""
    return [partial(_run_ladder, "reddit", cfg)]
