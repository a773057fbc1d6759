"""Fig 16 -- multi-worker (12) neighbor sampling speedup over SSD(mmap).

Paper finding: with 12 concurrent producer workers, SmartSAGE(HW/SW)
still beats the mmap baseline by 4.4x on average (max 5.5x) -- less than
the single-worker 10.1x because the wimpy embedded cores saturate.
"""

from __future__ import annotations

from functools import partial

from repro.api.experiment import register_experiment
from repro.experiments.common import (
    EVAL_DATASETS,
    EVAL_DESIGNS,
    ExperimentConfig,
    make_workloads,
    sampling_throughput,
    scaled_instance,
)
from repro.experiments.report import format_bars, format_table
from repro.sim.stats import geometric_mean

__all__ = ["render", "PAPER"]

PAPER = {"hwsw_avg": 4.4, "hwsw_max": 5.5, "sw_avg": 2.9}

#: concurrent producer workers, and batches each throughput run samples
N_WORKERS = 12
N_BATCHES = 36


def _run_dataset(name: str, cfg: ExperimentConfig) -> tuple:
    ds = scaled_instance(name, cfg)
    workloads = make_workloads(ds, cfg)
    tput = {
        design: sampling_throughput(
            design, ds, workloads, cfg, N_WORKERS, N_BATCHES
        )
        for design in EVAL_DESIGNS
    }
    return name, {
        "throughput": tput,
        "sw_speedup": tput["smartsage-sw"] / tput["ssd-mmap"],
        "hwsw_speedup": tput["smartsage-hwsw"] / tput["ssd-mmap"],
    }


def _collect(cfg: ExperimentConfig, outputs: list) -> dict:
    per_dataset = dict(outputs)
    sw = [v["sw_speedup"] for v in per_dataset.values()]
    hwsw = [v["hwsw_speedup"] for v in per_dataset.values()]
    return {
        "per_dataset": per_dataset,
        "sw_avg": geometric_mean(sw),
        "hwsw_avg": geometric_mean(hwsw),
        "hwsw_max": max(hwsw),
        "n_workers": N_WORKERS,
        "paper": PAPER,
    }


def render(result: dict) -> str:
    bars = {}
    for name, v in result["per_dataset"].items():
        bars[f"{name} SW"] = v["sw_speedup"]
        bars[f"{name} HW/SW"] = v["hwsw_speedup"]
    chart = format_bars(
        bars,
        title=f"Fig 16: {result['n_workers']}-worker sampling speedup "
              "vs SSD(mmap)",
        unit="x",
    )
    summary = format_table(
        ["metric", "measured", "paper"],
        [
            ["HW/SW avg speedup", f"{result['hwsw_avg']:.2f}x",
             f"{PAPER['hwsw_avg']}x"],
            ["HW/SW max speedup", f"{result['hwsw_max']:.2f}x",
             f"{PAPER['hwsw_max']}x"],
            ["SW avg speedup", f"{result['sw_avg']:.2f}x",
             f"~{PAPER['sw_avg']}x (Section VI-B)"],
        ],
    )
    return chart + "\n\n" + summary


@register_experiment(
    "fig16",
    figure="Figure 16",
    tags=("paper", "sampling", "speedup", "multi-worker"),
    collect=_collect,
    render=render,
)
def _plan(cfg: ExperimentConfig) -> list:
    """One 12-worker throughput unit per Table I dataset."""
    return [partial(_run_dataset, name, cfg) for name in EVAL_DATASETS]
