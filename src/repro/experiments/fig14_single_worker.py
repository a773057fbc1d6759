"""Fig 14 -- single-worker neighbor sampling speedup over SSD(mmap).

Paper finding: SmartSAGE(SW) alone gives ~1.5x average sampling speedup;
adding ISP (SmartSAGE HW/SW) reaches 10.1x average (max 12.6x).
"""

from __future__ import annotations

from functools import partial

from repro.api.experiment import register_experiment
from repro.experiments.common import (
    EVAL_DATASETS,
    EVAL_DESIGNS,
    ExperimentConfig,
    scaled_instance,
    session_for,
)
from repro.experiments.report import format_bars, format_table
from repro.sim.stats import geometric_mean

__all__ = ["render", "PAPER"]

PAPER = {
    "sw_avg": 1.5,
    "hwsw_avg": 10.1,
    "hwsw_max": 12.6,
    #: SSD->CPU data movement reduction, stated as "~20x"
    "data_movement_reduction_avg": 20.0,
}


def _run_dataset(name: str, cfg: ExperimentConfig) -> tuple:
    session = session_for(scaled_instance(name, cfg), cfg)
    costs = session.sampling_costs(EVAL_DESIGNS)
    mmap = costs["ssd-mmap"].total_s
    return name, {
        "mmap_ms": mmap * 1e3,
        "sw_speedup": mmap / costs["smartsage-sw"].total_s,
        "hwsw_speedup": mmap / costs["smartsage-hwsw"].total_s,
        "mmap_bytes": costs["ssd-mmap"].bytes_from_ssd,
        "sw_bytes": costs["smartsage-sw"].bytes_from_ssd,
        "hwsw_bytes": costs["smartsage-hwsw"].bytes_from_ssd,
    }


def _collect(cfg: ExperimentConfig, outputs: list) -> dict:
    per_dataset = dict(outputs)
    sw = [v["sw_speedup"] for v in per_dataset.values()]
    hwsw = [v["hwsw_speedup"] for v in per_dataset.values()]
    # Compare against the *minimal* host-path transfer (direct I/O reads
    # block-aligned extents); mmap moves even more than this.
    movement = [
        v["sw_bytes"] / max(1, v["hwsw_bytes"])
        for v in per_dataset.values()
    ]
    return {
        "per_dataset": per_dataset,
        "sw_avg": geometric_mean(sw),
        "hwsw_avg": geometric_mean(hwsw),
        "hwsw_max": max(hwsw),
        "data_movement_reduction_avg": geometric_mean(movement),
        "paper": PAPER,
    }


def render(result: dict) -> str:
    bars = {}
    for name, v in result["per_dataset"].items():
        bars[f"{name} SW"] = v["sw_speedup"]
        bars[f"{name} HW/SW"] = v["hwsw_speedup"]
    chart = format_bars(
        bars,
        title="Fig 14: single-worker sampling speedup vs SSD(mmap)",
        unit="x",
    )
    summary = format_table(
        ["metric", "measured", "paper"],
        [
            ["SmartSAGE(SW) avg speedup",
             f"{result['sw_avg']:.2f}x", f"{PAPER['sw_avg']}x"],
            ["SmartSAGE(HW/SW) avg speedup",
             f"{result['hwsw_avg']:.2f}x", f"{PAPER['hwsw_avg']}x"],
            ["SmartSAGE(HW/SW) max speedup",
             f"{result['hwsw_max']:.2f}x", f"{PAPER['hwsw_max']}x"],
            ["SSD->CPU data movement reduction",
             f"{result['data_movement_reduction_avg']:.1f}x",
             f"~{PAPER['data_movement_reduction_avg']:.0f}x"],
        ],
    )
    return chart + "\n\n" + summary


@register_experiment(
    "fig14",
    figure="Figure 14",
    tags=("paper", "sampling", "speedup"),
    collect=_collect,
    render=render,
)
def _plan(cfg: ExperimentConfig) -> list:
    """One single-worker sampling-cost unit per Table I dataset."""
    return [partial(_run_dataset, name, cfg) for name in EVAL_DATASETS]
