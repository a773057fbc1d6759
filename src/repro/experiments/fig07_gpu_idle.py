"""Fig 7 -- GPU idle time: in-memory vs mmap-based SSD training.

Paper finding: with in-memory processing the GPU stays busy (producers
outpace it); with the mmap SSD baseline the producers starve the work
queue and the GPU sits idle for most of the training time.
"""

from __future__ import annotations

from functools import partial

from repro.api.experiment import RunRecord, register_experiment
from repro.experiments.common import (
    EVAL_DATASETS,
    ExperimentConfig,
    scaled_instance,
    session_for,
)
from repro.experiments.report import format_table

__all__ = ["render"]

#: pipeline length and producer workers of every unit
N_BATCHES = 30
N_WORKERS = 12

_DESIGNS = ("dram", "ssd-mmap")


def _run_dataset(name: str, cfg: ExperimentConfig) -> tuple:
    results = session_for(
        scaled_instance(name, cfg), cfg,
        n_batches=N_BATCHES, n_workers=N_WORKERS,
    ).compare(_DESIGNS).results
    return name, {d: r.gpu_idle_fraction for d, r in results.items()}


def _collect(cfg: ExperimentConfig, outputs: list) -> dict:
    return {"per_dataset": dict(outputs)}


def render(result: dict) -> str:
    rows = [
        [name, f"{idle['dram']:.0%}", f"{idle['ssd-mmap']:.0%}"]
        for name, idle in result["per_dataset"].items()
    ]
    rows.append(["paper (typical)", "~0-20%", "~80-95%"])
    return format_table(
        ["dataset", "GPU idle (DRAM)", "GPU idle (SSD mmap)"],
        rows,
        title="Fig 7: fraction of training time with the GPU idle",
    )


def _records(result: dict) -> list:
    return [
        RunRecord(
            experiment="fig07",
            dataset=name,
            design=design,
            metrics={"gpu_idle_fraction": frac},
        )
        for name, idle in result["per_dataset"].items()
        for design, frac in idle.items()
    ]


@register_experiment(
    "fig07",
    figure="Figure 7",
    tags=("paper", "e2e", "gpu"),
    collect=_collect,
    records=_records,
    render=render,
)
def _plan(cfg: ExperimentConfig) -> list:
    """One GPU-idle measurement unit per Table I dataset."""
    return [partial(_run_dataset, name, cfg) for name in EVAL_DATASETS]
