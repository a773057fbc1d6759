"""Fig 18 -- end-to-end GNN training time across every design point.

Paper findings: SmartSAGE(HW/SW) improves end-to-end training throughput
by 3.5x average (max 5.0x) over the mmap baseline while still trailing
the unbuildable DRAM-only oracle; Intel PMEM sits within ~1.2x of DRAM;
SmartSAGE(oracle) -- a Newport-class CSD with dedicated ISP cores --
reaches ~70% of DRAM and ~90% of PMEM performance.
"""

from __future__ import annotations

from functools import partial

from repro.api.experiment import (
    RunRecord,
    numeric_metrics,
    register_experiment,
)
from repro.experiments.common import (
    EVAL_DATASETS,
    ExperimentConfig,
    scaled_instance,
    session_for,
)
from repro.experiments.report import format_stacked, format_table
from repro.sim.stats import PhaseBreakdown, geometric_mean

__all__ = ["render", "PAPER", "FIG18_DESIGNS"]

#: pipeline length and producer workers of every unit
N_BATCHES = 30
N_WORKERS = 12

PAPER = {
    "hwsw_vs_mmap_avg": 3.5,
    "hwsw_vs_mmap_max": 5.0,
    "sw_vs_mmap_avg": 2.5,
    "pmem_vs_dram_slowdown": 1.2,
    "oracle_frac_of_dram": 0.70,
    "oracle_frac_of_pmem": 0.90,
}

FIG18_DESIGNS = (
    "ssd-mmap", "smartsage-sw", "smartsage-hwsw",
    "smartsage-oracle", "pmem", "dram",
)


def _run_dataset(name: str, cfg: ExperimentConfig) -> tuple:
    session = session_for(
        scaled_instance(name, cfg), cfg,
        mode="event", n_batches=N_BATCHES, n_workers=N_WORKERS,
    )
    cmp = session.compare(list(FIG18_DESIGNS), baseline="ssd-mmap")
    results = cmp.results
    elapsed = {d: r.elapsed_s for d, r in results.items()}
    return name, {
        "results": results,
        "elapsed": elapsed,
        "hwsw_vs_mmap": cmp.speedup("smartsage-hwsw"),
        "sw_vs_mmap": cmp.speedup("smartsage-sw"),
        "pmem_vs_dram": elapsed["pmem"] / elapsed["dram"],
        "oracle_frac_of_dram": cmp.speedup(
            "smartsage-oracle", baseline="dram"
        ),
        "oracle_frac_of_pmem": cmp.speedup(
            "smartsage-oracle", baseline="pmem"
        ),
    }


def _collect(cfg: ExperimentConfig, outputs: list) -> dict:
    per_dataset = dict(outputs)
    hwsw = [v["hwsw_vs_mmap"] for v in per_dataset.values()]
    sw = [v["sw_vs_mmap"] for v in per_dataset.values()]
    return {
        "per_dataset": per_dataset,
        "hwsw_vs_mmap_avg": geometric_mean(hwsw),
        "hwsw_vs_mmap_max": max(hwsw),
        "sw_vs_mmap_avg": geometric_mean(sw),
        "pmem_vs_dram_avg": geometric_mean(
            [v["pmem_vs_dram"] for v in per_dataset.values()]
        ),
        "oracle_frac_of_dram_avg": geometric_mean(
            [v["oracle_frac_of_dram"] for v in per_dataset.values()]
        ),
        "oracle_frac_of_pmem_avg": geometric_mean(
            [v["oracle_frac_of_pmem"] for v in per_dataset.values()]
        ),
        "paper": PAPER,
    }


def render(result: dict) -> str:
    chunks = []
    phases = PhaseBreakdown.STANDARD_PHASES[:4]
    for name, data in result["per_dataset"].items():
        rows = {
            design: data["results"][design].phase_means
            for design in FIG18_DESIGNS
        }
        chunks.append(
            format_stacked(
                rows, phases,
                title=f"Fig 18 [{name}]: per-batch latency breakdown",
            )
        )
    chunks.append(
        format_table(
            ["metric", "measured", "paper"],
            [
                ["HW/SW vs mmap e2e (avg)",
                 f"{result['hwsw_vs_mmap_avg']:.2f}x",
                 f"{PAPER['hwsw_vs_mmap_avg']}x"],
                ["HW/SW vs mmap e2e (max)",
                 f"{result['hwsw_vs_mmap_max']:.2f}x",
                 f"{PAPER['hwsw_vs_mmap_max']}x"],
                ["SW vs mmap e2e (avg)",
                 f"{result['sw_vs_mmap_avg']:.2f}x",
                 f"{PAPER['sw_vs_mmap_avg']}x"],
                ["PMEM slowdown vs DRAM",
                 f"{result['pmem_vs_dram_avg']:.2f}x",
                 f"{PAPER['pmem_vs_dram_slowdown']}x"],
                ["oracle as fraction of DRAM perf",
                 f"{result['oracle_frac_of_dram_avg']:.0%}",
                 f"{PAPER['oracle_frac_of_dram']:.0%}"],
                ["oracle as fraction of PMEM perf",
                 f"{result['oracle_frac_of_pmem_avg']:.0%}",
                 f"{PAPER['oracle_frac_of_pmem']:.0%}"],
            ],
        )
    )
    return "\n\n".join(chunks)


def _records(result: dict) -> list:
    records = []
    for name, data in result["per_dataset"].items():
        for design, elapsed_s in data["elapsed"].items():
            records.append(
                RunRecord(
                    experiment="fig18",
                    dataset=name,
                    design=design,
                    metrics={"elapsed_s": elapsed_s},
                )
            )
        records.append(
            RunRecord(
                experiment="fig18",
                dataset=name,
                metrics=numeric_metrics(data),
            )
        )
    records.append(
        RunRecord(experiment="fig18", metrics=numeric_metrics(result))
    )
    return records


@register_experiment(
    "fig18",
    figure="Figure 18",
    tags=("paper", "e2e", "speedup"),
    collect=_collect,
    records=_records,
    render=render,
)
def _plan(cfg: ExperimentConfig) -> list:
    """One all-designs pipeline comparison per Table I dataset."""
    return [partial(_run_dataset, name, cfg) for name in EVAL_DATASETS]
