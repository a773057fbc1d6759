"""Calibration summary: every headline paper ratio from one parameter set.

Reads the results of the headline figures (14, 16, 18) and prints
measured vs paper values side by side; it simulates nothing itself.
This is the first thing to run after any change to :mod:`repro.config`
-- all figures must hold simultaneously.
"""

from __future__ import annotations

from repro.api.experiment import RunRecord, register_experiment
from repro.experiments.common import ExperimentConfig
from repro.experiments.report import format_table

__all__ = ["render"]


def _collect(cfg: ExperimentConfig, outputs: list) -> dict:
    f14, f16, f18 = outputs
    return {"fig14": f14, "fig16": f16, "fig18": f18}


def render(result: dict) -> str:
    f14, f16, f18 = result["fig14"], result["fig16"], result["fig18"]
    rows = [
        ["fig14 1-worker SW vs mmap (avg)",
         f"{f14['sw_avg']:.2f}x", "1.5x"],
        ["fig14 1-worker HW/SW vs mmap (avg)",
         f"{f14['hwsw_avg']:.2f}x", "10.1x"],
        ["fig14 1-worker HW/SW vs mmap (max)",
         f"{f14['hwsw_max']:.2f}x", "12.6x"],
        ["SSD->CPU data movement reduction",
         f"{f14['data_movement_reduction_avg']:.1f}x", "~20x"],
        ["fig16 12-worker HW/SW vs mmap (avg)",
         f"{f16['hwsw_avg']:.2f}x", "4.4x"],
        ["fig16 12-worker HW/SW vs mmap (max)",
         f"{f16['hwsw_max']:.2f}x", "5.5x"],
        ["fig16 12-worker SW vs mmap (avg)",
         f"{f16['sw_avg']:.2f}x", "~2.9x"],
        ["fig18 e2e HW/SW vs mmap (avg)",
         f"{f18['hwsw_vs_mmap_avg']:.2f}x", "3.5x"],
        ["fig18 e2e HW/SW vs mmap (max)",
         f"{f18['hwsw_vs_mmap_max']:.2f}x", "5.0x"],
        ["fig18 e2e SW vs mmap (avg)",
         f"{f18['sw_vs_mmap_avg']:.2f}x", "2.5x"],
        ["fig18 PMEM slowdown vs DRAM",
         f"{f18['pmem_vs_dram_avg']:.2f}x", "1.2x"],
        ["fig18 oracle / DRAM performance",
         f"{f18['oracle_frac_of_dram_avg']:.0%}", "70%"],
        ["fig18 oracle / PMEM performance",
         f"{f18['oracle_frac_of_pmem_avg']:.0%}", "90%"],
    ]
    return format_table(
        ["headline metric", "measured", "paper"],
        rows,
        title="Calibration: paper headline ratios from one parameter set",
    )


def _records(result: dict) -> list:
    f14, f16, f18 = result["fig14"], result["fig16"], result["fig18"]
    return [
        RunRecord(
            experiment="calibration",
            metrics={
                "fig14_sw_avg": f14["sw_avg"],
                "fig14_hwsw_avg": f14["hwsw_avg"],
                "fig14_hwsw_max": f14["hwsw_max"],
                "fig14_data_movement_reduction_avg":
                    f14["data_movement_reduction_avg"],
                "fig16_hwsw_avg": f16["hwsw_avg"],
                "fig16_hwsw_max": f16["hwsw_max"],
                "fig16_sw_avg": f16["sw_avg"],
                "fig18_hwsw_vs_mmap_avg": f18["hwsw_vs_mmap_avg"],
                "fig18_hwsw_vs_mmap_max": f18["hwsw_vs_mmap_max"],
                "fig18_sw_vs_mmap_avg": f18["sw_vs_mmap_avg"],
                "fig18_pmem_vs_dram_avg": f18["pmem_vs_dram_avg"],
                "fig18_oracle_frac_of_dram_avg":
                    f18["oracle_frac_of_dram_avg"],
                "fig18_oracle_frac_of_pmem_avg":
                    f18["oracle_frac_of_pmem_avg"],
            },
        )
    ]


@register_experiment(
    "calibration",
    figure="Calibration summary",
    tags=("extension", "calibration"),
    reads=("fig14", "fig16", "fig18"),
    collect=_collect,
    records=_records,
    render=render,
)
def _plan(cfg: ExperimentConfig) -> list:
    """No units: the three headline figures' results are read."""
    return []
