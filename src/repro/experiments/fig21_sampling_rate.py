"""Fig 21 -- sensitivity to the sampling rate (fanout scaling).

Paper finding: doubling the sampling rate shrinks SmartSAGE(HW/SW)'s
speedup (the returned subgraph grows toward the SW transfer size) and
halving it grows the speedup.
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

__all__ = ["render", "RATE_SCALES"]

RATE_SCALES = (0.5, 1.0, 2.0)


def _scaled_fanouts(fanouts, scale):
    return tuple(max(1, int(round(f * scale))) for f in fanouts)


def _run_dataset(name: str, cfg: ExperimentConfig) -> tuple:
    ds = scaled_instance(name, cfg)
    speedups = {}
    for scale in RATE_SCALES:
        rate_cfg = cfg.replace(
            fanouts=_scaled_fanouts(cfg.fanouts, scale)
        )
        workloads = make_workloads(ds, rate_cfg)
        costs = design_sweep(
            ds, EVAL_DESIGNS, workloads, rate_cfg
        )
        speedups[scale] = {
            "sw": costs["ssd-mmap"].total_s
            / costs["smartsage-sw"].total_s,
            "hwsw": costs["ssd-mmap"].total_s
            / costs["smartsage-hwsw"].total_s,
        }
    return name, speedups


def _collect(cfg: ExperimentConfig, outputs: list) -> dict:
    return {"per_dataset": dict(outputs), "rate_scales": RATE_SCALES}


def render(result: dict) -> str:
    rows = []
    for name, speedups in result["per_dataset"].items():
        rows.append(
            [name]
            + [f"{speedups[s]['hwsw']:.2f}x" for s in RATE_SCALES]
        )
    table = format_table(
        ["dataset"] + [f"{s}x rate" for s in RATE_SCALES],
        rows,
        title="Fig 21: SmartSAGE(HW/SW) sampling speedup vs sampling rate",
    )
    monotone = all(
        speedups[0.5]["hwsw"] > speedups[2.0]["hwsw"]
        for speedups in result["per_dataset"].values()
    )
    note = (
        "\n=> speedup shrinks as the sampling rate grows on every "
        "dataset, as in the paper."
        if monotone
        else "\nWARNING: expected monotone trend not observed!"
    )
    return table + note


def _records(result: dict) -> list:
    return [
        RunRecord(
            experiment="fig21",
            dataset=name,
            params={"rate_scale": scale},
            metrics={
                "sw_speedup": d["sw"],
                "hwsw_speedup": d["hwsw"],
            },
        )
        for name, speedups in result["per_dataset"].items()
        for scale, d in speedups.items()
    ]


@register_experiment(
    "fig21",
    figure="Figure 21",
    tags=("paper", "sampling", "sensitivity"),
    collect=_collect,
    records=_records,
    render=render,
)
def _plan(cfg: ExperimentConfig) -> list:
    """One sampling-rate sweep unit per Table I dataset."""
    return [partial(_run_dataset, name, cfg) for name in EVAL_DATASETS]
