"""Fig 20 -- sensitivity to the sampling algorithm: GraphSAINT.

Paper finding: with GraphSAINT's random-walk sampling, SmartSAGE achieves
an average 8.2x end-to-end speedup over the mmap baseline -- larger than
GraphSAGE's 3.5x, because walk steps are dependent chunk reads (terrible
for host I/O latency) and the walk subgraph is small (cheap ISP output).
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
from repro.experiments.report import format_bars, format_table
from repro.sim.stats import geometric_mean

__all__ = ["render", "PAPER_AVG_SPEEDUP"]

#: pipeline length and producer workers of every unit
N_BATCHES = 30
N_WORKERS = 12

PAPER_AVG_SPEEDUP = 8.2

_DESIGNS = ("ssd-mmap", "smartsage-sw", "smartsage-hwsw")


def _run_dataset(name: str, cfg: ExperimentConfig) -> tuple:
    results = session_for(
        scaled_instance(name, cfg), cfg,
        sampler="saint", n_batches=N_BATCHES, n_workers=N_WORKERS,
    ).compare(_DESIGNS).results
    elapsed = {d: r.elapsed_s for d, r in results.items()}
    return name, {
        "elapsed": elapsed,
        "hwsw_speedup": elapsed["ssd-mmap"]
        / elapsed["smartsage-hwsw"],
        "sw_speedup": elapsed["ssd-mmap"] / elapsed["smartsage-sw"],
    }


def _collect(cfg: ExperimentConfig, outputs: list) -> dict:
    per_dataset = dict(outputs)
    speedups = [v["hwsw_speedup"] for v in per_dataset.values()]
    return {
        "per_dataset": per_dataset,
        "hwsw_avg_speedup": geometric_mean(speedups),
        "paper_avg": PAPER_AVG_SPEEDUP,
    }


def render(result: dict) -> str:
    bars = {}
    for name, v in result["per_dataset"].items():
        bars[f"{name} SW"] = v["sw_speedup"]
        bars[f"{name} HW/SW"] = v["hwsw_speedup"]
    chart = format_bars(
        bars,
        title="Fig 20: GraphSAINT end-to-end speedup vs SSD(mmap)",
        unit="x",
    )
    summary = format_table(
        ["metric", "measured", "paper"],
        [["HW/SW avg e2e speedup (GraphSAINT)",
          f"{result['hwsw_avg_speedup']:.2f}x",
          f"{PAPER_AVG_SPEEDUP}x"]],
    )
    return chart + "\n\n" + summary


@register_experiment(
    "fig20",
    figure="Figure 20",
    tags=("paper", "e2e", "graphsaint"),
    collect=_collect,
    render=render,
)
def _plan(cfg: ExperimentConfig) -> list:
    """One GraphSAINT pipeline comparison per Table I dataset."""
    return [partial(_run_dataset, name, cfg) for name in EVAL_DATASETS]
