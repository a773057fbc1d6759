"""Section VI-F (omitted figure) -- sensitivity to training batch size.

The paper states: "Results showed that the chosen mini-batch size have
little effect on SmartSAGE's achieved speedup ... but omit the results
due to space constraints."  This experiment regenerates the omitted
sweep: SmartSAGE(HW/SW) sampling speedup at 0.5x/1x/2x of the default
mini-batch size should stay roughly flat.
"""

from __future__ import annotations

from functools import partial

from repro.api.experiment import RunRecord, register_experiment
from repro.experiments.common import (
    EVAL_DATASETS,
    EVAL_DESIGNS,
    ExperimentConfig,
    design_sweep,
    make_workloads,
    scaled_instance,
)
from repro.experiments.report import format_table

__all__ = ["render", "BATCH_SCALES"]

BATCH_SCALES = (0.5, 1.0, 2.0)


def _run_dataset(name: str, cfg: ExperimentConfig) -> tuple:
    ds = scaled_instance(name, cfg)
    speedups = {}
    for scale in BATCH_SCALES:
        batch_cfg = cfg.replace(
            batch_size=max(8, int(round(cfg.batch_size * scale)))
        )
        workloads = make_workloads(ds, batch_cfg)
        costs = design_sweep(ds, EVAL_DESIGNS, workloads, batch_cfg)
        speedups[scale] = (
            costs["ssd-mmap"].total_s
            / costs["smartsage-hwsw"].total_s
        )
    return name, speedups


def _collect(cfg: ExperimentConfig, outputs: list) -> dict:
    per_dataset = dict(outputs)
    # "little effect": max/min spread of the speedup across batch sizes
    spreads = {
        name: max(s.values()) / min(s.values())
        for name, s in per_dataset.items()
    }
    return {
        "per_dataset": per_dataset,
        "spreads": spreads,
        "max_spread": max(spreads.values()),
    }


def render(result: dict) -> str:
    rows = []
    for name, speedups in result["per_dataset"].items():
        rows.append(
            [name]
            + [f"{speedups[s]:.2f}x" for s in BATCH_SCALES]
            + [f"{result['spreads'][name]:.2f}"]
        )
    table = format_table(
        ["dataset"] + [f"{s}x batch" for s in BATCH_SCALES] + ["spread"],
        rows,
        title="Section VI-F (omitted in paper): HW/SW speedup vs "
              "mini-batch size",
    )
    note = (
        f"\n=> max spread {result['max_spread']:.2f} -- batch size has "
        "little effect on the achieved speedup, confirming the paper's "
        "(unplotted) claim."
        if result["max_spread"] < 1.5
        else "\nWARNING: speedup is batch-size sensitive here!"
    )
    return table + note


def _records(result: dict) -> list:
    records = [
        RunRecord(
            experiment="batch-sensitivity",
            dataset=name,
            design="smartsage-hwsw",
            params={"batch_scale": scale},
            metrics={"hwsw_speedup": speedup},
        )
        for name, speedups in result["per_dataset"].items()
        for scale, speedup in speedups.items()
    ]
    records.append(
        RunRecord(
            experiment="batch-sensitivity",
            metrics={"max_spread": result["max_spread"]},
        )
    )
    return records


@register_experiment(
    "batch-sensitivity",
    figure="Section VI-F (omitted figure)",
    tags=("extension", "sensitivity"),
    collect=_collect,
    records=_records,
    render=render,
)
def _plan(cfg: ExperimentConfig) -> list:
    """One batch-size sweep unit per Table I dataset."""
    return [partial(_run_dataset, name, cfg) for name in EVAL_DATASETS]
