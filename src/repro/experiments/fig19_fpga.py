"""Fig 19 -- FPGA-based CSD vs SSD(mmap) and SmartSAGE(SW).

Paper finding: offloading sampling to an FPGA CSD (SmartSSD) buys nothing
-- the two-step P2P transfer (SSD->FPGA of overfetched chunks, then
FPGA->CPU) dominates, leaving it no faster than software-only SmartSAGE.
"""

from __future__ import annotations

from functools import partial

from repro.api.experiment import RunRecord, register_experiment
from repro.experiments.common import (
    EVAL_DATASETS,
    ExperimentConfig,
    design_sweep,
    make_workloads,
    scaled_instance,
)
from repro.experiments.report import format_stacked, format_table
from repro.sim.stats import geometric_mean

__all__ = ["render"]

_DESIGNS = ("ssd-mmap", "smartsage-sw", "fpga-csd")
_FPGA_PHASES = ("ssd_to_fpga", "sampling_fpga", "fpga_to_cpu")


def _run_dataset(name: str, cfg: ExperimentConfig) -> tuple:
    ds = scaled_instance(name, cfg)
    workloads = make_workloads(ds, cfg)
    costs = design_sweep(ds, _DESIGNS, workloads, cfg)
    fpga = costs["fpga-csd"]
    return name, {
        "latency_ms": {
            d: c.total_s * 1e3 for d, c in costs.items()
        },
        "fpga_breakdown": dict(fpga.components),
        "fpga_vs_sw": costs["smartsage-sw"].total_s / fpga.total_s,
        "transfer_fraction": (
            fpga.component("ssd_to_fpga")
            + fpga.component("fpga_to_cpu")
        ) / fpga.total_s,
    }


def _collect(cfg: ExperimentConfig, outputs: list) -> dict:
    per_dataset = dict(outputs)
    ratios = [v["fpga_vs_sw"] for v in per_dataset.values()]
    return {
        "per_dataset": per_dataset,
        "fpga_vs_sw_avg": geometric_mean(ratios),
    }


def render(result: dict) -> str:
    chunks = []
    for name, d in result["per_dataset"].items():
        chunks.append(
            format_stacked(
                {"fpga-csd": d["fpga_breakdown"]},
                _FPGA_PHASES,
                title=f"Fig 19 [{name}]: FPGA-CSD sampling breakdown "
                      f"(P2P transfers = "
                      f"{d['transfer_fraction']:.0%} of time)",
            )
        )
    rows = [
        [name,
         f"{d['latency_ms']['ssd-mmap']:.1f}",
         f"{d['latency_ms']['smartsage-sw']:.1f}",
         f"{d['latency_ms']['fpga-csd']:.1f}",
         f"{d['fpga_vs_sw']:.2f}x"]
        for name, d in result["per_dataset"].items()
    ]
    chunks.append(
        format_table(
            ["dataset", "mmap ms", "SW ms", "FPGA-CSD ms", "SW/FPGA"],
            rows,
            title="FPGA-CSD offers no advantage over SmartSAGE(SW) "
                  "(paper: 'failing to achieve any performance advantage')",
        )
    )
    return "\n\n".join(chunks)


def _records(result: dict) -> list:
    records = []
    for name, d in result["per_dataset"].items():
        for design, ms in d["latency_ms"].items():
            records.append(
                RunRecord(
                    experiment="fig19",
                    dataset=name,
                    design=design,
                    metrics={"sampling_ms": ms},
                )
            )
        records.append(
            RunRecord(
                experiment="fig19",
                dataset=name,
                metrics={
                    "fpga_vs_sw": d["fpga_vs_sw"],
                    "transfer_fraction": d["transfer_fraction"],
                },
            )
        )
    records.append(
        RunRecord(
            experiment="fig19",
            metrics={"fpga_vs_sw_avg": result["fpga_vs_sw_avg"]},
        )
    )
    return records


@register_experiment(
    "fig19",
    figure="Figure 19",
    tags=("paper", "sampling", "fpga"),
    collect=_collect,
    records=_records,
    render=render,
)
def _plan(cfg: ExperimentConfig) -> list:
    """One FPGA-CSD comparison unit per Table I dataset."""
    return [partial(_run_dataset, name, cfg) for name in EVAL_DATASETS]
