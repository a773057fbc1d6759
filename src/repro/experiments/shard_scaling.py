"""Shard scaling (extension): end-to-end throughput vs. shard count.

Beyond the paper's single-CSD designs: partition the graph across K
shard-local device groups (``mode="sharded"``, one SSD + GPU consumer
per shard) and measure how end-to-end training throughput scales as K
grows.  Expected shape: throughput increases with K but sub-linearly --
the cut fraction approaches ``1 - 1/K``, so an ever-larger share of
sampled neighbor lists and input feature rows are remote reads over
each shard's PCIe ingress link.  The experiment runs the SmartSAGE-ISP
and mmap-baseline shard designs side by side, so the records also show
whether ISP offload still pays once the interconnect is in the loop.

Every unit is a declarative :class:`~repro.api.spec.RunSpec` executed
through a :class:`~repro.api.session.Session`, so a Campaign can spread
the (design, K) grid across worker threads.
"""

from __future__ import annotations

import dataclasses

from repro.api.experiment import RunRecord, register_experiment
from repro.experiments.common import ExperimentConfig
from repro.experiments.report import format_table

__all__ = [
    "render", "DATASET", "SHARD_COUNTS", "SHARD_DESIGNS",
]

DATASET = "reddit"
SHARD_COUNTS = (1, 2, 4, 8)
SHARD_DESIGNS = ("smartsage-sharded", "baseline-sharded")

_PIPELINE = dict(mode="sharded", n_batches=24, n_workers=4)


def _unit_specs(cfg: ExperimentConfig) -> list:
    specs = []
    for design in SHARD_DESIGNS:
        for k in SHARD_COUNTS:
            spec = cfg.run_spec(DATASET, design, **_PIPELINE)
            specs.append(
                spec.replace(
                    system=dataclasses.replace(spec.system, n_shards=k)
                )
            )
    return specs


def _collect(cfg: ExperimentConfig, outputs: list) -> dict:
    per_design: dict = {}
    it = iter(outputs)
    for design in SHARD_DESIGNS:
        points = {}
        for k in SHARD_COUNTS:
            r = next(it)
            points[k] = {
                "throughput_batches_per_s": r.throughput_batches_per_s,
                "elapsed_s": r.elapsed_s,
                "gpu_idle_fraction": r.gpu_idle_fraction,
                "cut_fraction": r.backend_stats.get("cut_fraction", 0.0),
                "remote_gb": r.backend_stats.get("remote_bytes", 0.0) / 1e9,
            }
        base = points[SHARD_COUNTS[0]]["throughput_batches_per_s"]
        for k, p in points.items():
            p["speedup_vs_1"] = (
                p["throughput_batches_per_s"] / base if base else 0.0
            )
            p["scaling_efficiency"] = p["speedup_vs_1"] / k
        per_design[design] = points
    return {
        "dataset": DATASET,
        "shard_counts": list(SHARD_COUNTS),
        "per_design": per_design,
    }


def render(result: dict) -> str:
    chunks = []
    for design, points in result["per_design"].items():
        rows = []
        for k, p in points.items():
            rows.append(
                [
                    k,
                    f"{p['throughput_batches_per_s']:.1f}",
                    f"{p['speedup_vs_1']:.2f}x",
                    f"{p['scaling_efficiency']:.0%}",
                    f"{p['cut_fraction']:.0%}",
                    f"{p['gpu_idle_fraction']:.0%}",
                ]
            )
        chunks.append(
            format_table(
                ["shards", "batches/s", "speedup", "efficiency",
                 "cut", "gpu idle"],
                rows,
                title=(
                    f"Shard scaling [{result['dataset']}]: {design} "
                    "(sharded mode, edge-cut partition)"
                ),
            )
        )
    return "\n\n".join(chunks)


def _records(result: dict) -> list:
    records = []
    for design, points in result["per_design"].items():
        for k, p in points.items():
            records.append(
                RunRecord(
                    experiment="shard-scaling",
                    dataset=result["dataset"],
                    design=design,
                    params={"n_shards": int(k), "mode": "sharded"},
                    metrics=dict(p),
                )
            )
    return records


@register_experiment(
    "shard-scaling",
    figure="extension (sharded scale-out)",
    tags=("extension", "sharding", "e2e"),
    collect=_collect,
    records=_records,
    render=render,
)
def _plan(cfg: ExperimentConfig) -> list:
    """One sharded end-to-end run per (design, shard count) grid point."""
    return _unit_specs(cfg)
