"""Section VI-E -- power and energy consumption.

Paper claims: SmartSAGE(HW/SW) is firmware-only (no added power), so its
training-time reduction improves system energy proportionally; the
oracle CSD's dedicated cores add only 2-6 W against a system drawing
hundreds of watts.
"""

from __future__ import annotations

from functools import partial

from repro.api.experiment import register_experiment
from repro.core.energy import energy_comparison
from repro.experiments.common import (
    ExperimentConfig,
    scaled_instance,
    session_for,
)
from repro.experiments.report import format_table
from repro.sim.stats import geometric_mean

__all__ = ["render"]

#: pipeline length and producer workers of every unit
N_BATCHES = 24
N_WORKERS = 12

_DESIGNS = ("ssd-mmap", "smartsage-sw", "smartsage-hwsw",
            "smartsage-oracle", "dram")


def _run_dataset(name: str, cfg: ExperimentConfig) -> tuple:
    results = session_for(
        scaled_instance(name, cfg), cfg,
        n_batches=N_BATCHES, n_workers=N_WORKERS,
    ).compare(_DESIGNS).results
    reports = energy_comparison(results)
    return name, {
        "reports": reports,
        "energy_saving_vs_mmap": reports["ssd-mmap"].energy_j
        / reports["smartsage-hwsw"].energy_j,
        "time_saving_vs_mmap": results["ssd-mmap"].elapsed_s
        / results["smartsage-hwsw"].elapsed_s,
    }


def _collect(cfg: ExperimentConfig, outputs: list) -> dict:
    per_dataset = dict(outputs)
    savings = [v["energy_saving_vs_mmap"] for v in per_dataset.values()]
    times = [v["time_saving_vs_mmap"] for v in per_dataset.values()]
    return {
        "per_dataset": per_dataset,
        "avg_energy_saving": geometric_mean(savings),
        "avg_time_saving": geometric_mean(times),
    }


def render(result: dict) -> str:
    chunks = []
    for name, d in result["per_dataset"].items():
        rows = [
            [design, f"{r.elapsed_s * 1e3:.1f}",
             f"{r.avg_power_w:.0f}", f"{r.energy_j:.2f}"]
            for design, r in d["reports"].items()
        ]
        chunks.append(
            format_table(
                ["design", "time (ms)", "avg power (W)", "energy (J)"],
                rows,
                title=f"Section VI-E [{name}]: power and energy",
            )
        )
    chunks.append(
        format_table(
            ["metric", "measured", "paper"],
            [
                ["HW/SW energy saving vs mmap",
                 f"{result['avg_energy_saving']:.2f}x",
                 "~ proportional to time saving"],
                ["HW/SW time saving vs mmap",
                 f"{result['avg_time_saving']:.2f}x", "3.5x"],
            ],
        )
    )
    return "\n\n".join(chunks)


@register_experiment(
    "energy",
    figure="Section VI-E",
    tags=("extension", "energy"),
    collect=_collect,
    render=render,
)
def _plan(cfg: ExperimentConfig) -> list:
    """One power/energy comparison per evaluated dataset."""
    return [
        partial(_run_dataset, name, cfg)
        for name in ("reddit", "amazon")
    ]
