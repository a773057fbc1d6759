"""Fig 15 -- effect of I/O command coalescing granularity on SmartSAGE.

Paper finding: coalescing a whole 1024-target mini-batch into a single
NVMe command is essential; as the granularity shrinks toward one target
per command, command/control overheads dominate and performance collapses.

The repo's scaled batches use proportionally scaled granularities.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

from repro.api.experiment import RunRecord, register_experiment
from repro.experiments.common import (
    EVAL_DATASETS,
    ExperimentConfig,
    build_eval_system,
    make_workloads,
    scaled_instance,
    steady_state_cost,
)
from repro.experiments.report import format_bars, format_table

__all__ = ["render", "granularities_for"]


def granularities_for(batch_size: int) -> Sequence[int]:
    """The paper's sweep {1024, 512, 256, 64, 16, 1}, scaled."""
    paper = (1024, 512, 256, 64, 16, 1)
    scale = batch_size / 1024
    out = []
    for g in paper:
        out.append(max(1, int(round(g * scale))))
    # dedupe while keeping order
    seen = set()
    return [g for g in out if not (g in seen or seen.add(g))]


def _run_dataset(name: str, cfg: ExperimentConfig) -> tuple:
    grans = granularities_for(cfg.batch_size)
    ds = scaled_instance(name, cfg)
    workloads = make_workloads(ds, cfg)
    times = {}
    for g in grans:
        system = build_eval_system(
            "smartsage-hwsw", ds, cfg, granularity=g
        )
        times[g] = steady_state_cost(
            system.sampling_engine, workloads,
            warmup=cfg.warmup_batches,
        ).total_s
    full = times[grans[0]]
    return name, {
        "granularities": grans,
        "relative_performance": {
            g: full / t for g, t in times.items()
        },
        "batch_ms": {g: t * 1e3 for g, t in times.items()},
    }


def _collect(cfg: ExperimentConfig, outputs: list) -> dict:
    return {
        "per_dataset": dict(outputs),
        "granularities": granularities_for(cfg.batch_size),
    }


def render(result: dict) -> str:
    chunks = []
    for name, d in result["per_dataset"].items():
        bars = {
            f"g={g}": perf
            for g, perf in d["relative_performance"].items()
        }
        chunks.append(
            format_bars(
                bars,
                title=f"Fig 15 [{name}]: performance vs coalescing "
                      "granularity (1.0 = full-batch coalescing)",
            )
        )
    rows = []
    for name, d in result["per_dataset"].items():
        finest = d["granularities"][-1]
        rows.append(
            [name, f"{d['relative_performance'][finest]:.2f}",
             "collapses (paper: severe hit)"]
        )
    chunks.append(
        format_table(
            ["dataset", "perf at finest granularity", "paper"],
            rows,
        )
    )
    return "\n\n".join(chunks)


def _records(result: dict) -> list:
    return [
        RunRecord(
            experiment="fig15",
            dataset=name,
            design="smartsage-hwsw",
            params={"granularity": g},
            metrics={
                "relative_performance": d["relative_performance"][g],
                "batch_ms": d["batch_ms"][g],
            },
        )
        for name, d in result["per_dataset"].items()
        for g in d["granularities"]
    ]


@register_experiment(
    "fig15",
    figure="Figure 15",
    tags=("paper", "sampling", "coalescing"),
    collect=_collect,
    records=_records,
    render=render,
)
def _plan(cfg: ExperimentConfig) -> list:
    """One granularity-sweep unit per Table I dataset."""
    return [partial(_run_dataset, name, cfg) for name in EVAL_DATASETS]
