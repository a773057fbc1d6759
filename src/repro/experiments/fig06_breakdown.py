"""Fig 6 -- end-to-end latency breakdown: DRAM vs mmap-based SSD.

Paper finding: the baseline SSD-centric system (mmap + page cache) is on
average 9.8x (max 19.6x) slower end-to-end than the oracular in-memory
system, and neighbor sampling dominates its per-batch latency.
"""

from __future__ import annotations

from functools import partial

from repro.api.experiment import register_experiment
from repro.experiments.common import (
    EVAL_DATASETS,
    ExperimentConfig,
    scaled_instance,
    session_for,
)
from repro.experiments.report import format_stacked, format_table
from repro.sim.stats import PhaseBreakdown, geometric_mean

__all__ = ["render", "PAPER_AVG_SLOWDOWN", "PAPER_MAX_SLOWDOWN"]

#: pipeline length and producer workers of every unit
N_BATCHES = 30
N_WORKERS = 12

PAPER_AVG_SLOWDOWN = 9.8
PAPER_MAX_SLOWDOWN = 19.6

_DESIGNS = ("dram", "ssd-mmap")


def _run_dataset(name: str, cfg: ExperimentConfig) -> tuple:
    designs = session_for(
        scaled_instance(name, cfg), cfg,
        n_batches=N_BATCHES, n_workers=N_WORKERS,
    ).compare(_DESIGNS).results
    slowdown = (
        designs["ssd-mmap"].elapsed_s / designs["dram"].elapsed_s
    )
    return name, {
        "results": designs,
        "slowdown": slowdown,
    }


def _collect(cfg: ExperimentConfig, outputs: list) -> dict:
    per_dataset = dict(outputs)
    slows = [v["slowdown"] for v in per_dataset.values()]
    return {
        "per_dataset": per_dataset,
        "avg_slowdown": geometric_mean(slows),
        "max_slowdown": max(slows),
        "paper": {
            "avg": PAPER_AVG_SLOWDOWN, "max": PAPER_MAX_SLOWDOWN,
        },
    }


def render(result: dict) -> str:
    chunks = []
    phases = PhaseBreakdown.STANDARD_PHASES[:4]
    for name, data in result["per_dataset"].items():
        rows = {
            design: res.phase_means
            for design, res in data["results"].items()
        }
        chunks.append(
            format_stacked(
                rows, phases,
                title=f"Fig 6 [{name}] per-batch latency breakdown "
                      f"(SSD(mmap) is {data['slowdown']:.1f}x slower e2e)",
            )
        )
    chunks.append(
        format_table(
            ["metric", "measured", "paper"],
            [
                ["avg e2e slowdown (mmap vs DRAM)",
                 f"{result['avg_slowdown']:.1f}x",
                 f"{PAPER_AVG_SLOWDOWN}x"],
                ["max e2e slowdown",
                 f"{result['max_slowdown']:.1f}x",
                 f"{PAPER_MAX_SLOWDOWN}x"],
            ],
        )
    )
    return "\n\n".join(chunks)


@register_experiment(
    "fig06",
    figure="Figure 6",
    tags=("paper", "e2e", "breakdown"),
    collect=_collect,
    render=render,
)
def _plan(cfg: ExperimentConfig) -> list:
    """One DRAM-vs-mmap pipeline unit per Table I dataset."""
    return [partial(_run_dataset, name, cfg) for name in EVAL_DATASETS]
