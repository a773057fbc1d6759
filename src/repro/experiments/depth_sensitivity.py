"""Depth sensitivity: 1-, 2-, and 3-layer sampling (extension).

The paper evaluates the default 2-hop GraphSAGE; deeper sampling grows
the frontier multiplicatively ("the coverage of feature learning could
exponentially propagate", Section II-A), which stresses storage even
harder.  This extension sweeps the sampling depth and reports how each
design's cost scales and whether the HW/SW advantage survives.
"""

from __future__ import annotations

from functools import partial

from repro.api.experiment import RunRecord, register_experiment
from repro.experiments.common import (
    EVAL_DESIGNS,
    ExperimentConfig,
    design_sweep,
    make_workloads,
    scaled_instance,
)
from repro.experiments.report import format_table

__all__ = ["render", "DEPTH_FANOUTS"]

DEPTH_FANOUTS = {
    1: (25,),
    2: (25, 10),
    3: (25, 10, 5),
}


def _run_depth(
    dataset_name: str, depth: int, cfg: ExperimentConfig
) -> tuple:
    ds = scaled_instance(dataset_name, cfg)
    depth_cfg = cfg.replace(fanouts=DEPTH_FANOUTS[depth])
    workloads = make_workloads(ds, depth_cfg)
    costs = design_sweep(ds, EVAL_DESIGNS, workloads, depth_cfg)
    return depth, {
        "targets": workloads[0].total_targets,
        "mmap_ms": costs["ssd-mmap"].total_s * 1e3,
        "hwsw_speedup": costs["ssd-mmap"].total_s
        / costs["smartsage-hwsw"].total_s,
    }


def _collect(cfg: ExperimentConfig, outputs: list) -> dict:
    return {"dataset": "reddit", "per_depth": dict(outputs)}


def render(result: dict) -> str:
    rows = [
        [f"{depth}-hop", d["targets"], f"{d['mmap_ms']:.1f}",
         f"{d['hwsw_speedup']:.2f}x"]
        for depth, d in result["per_depth"].items()
    ]
    table = format_table(
        ["depth", "targets/batch", "mmap ms/batch", "HW/SW speedup"],
        rows,
        title=f"Depth sensitivity [{result['dataset']}]: deeper sampling "
              "grows the storage workload; the ISP advantage persists",
    )
    persists = all(
        d["hwsw_speedup"] > 3.0 for d in result["per_depth"].values()
    )
    note = (
        "\n=> the HW/SW advantage holds at every depth."
        if persists
        else "\nWARNING: HW/SW advantage collapsed at some depth!"
    )
    return table + note


def _records(result: dict) -> list:
    return [
        RunRecord(
            experiment="depth-sensitivity",
            dataset=result["dataset"],
            params={"depth": depth},
            metrics={
                "targets": d["targets"],
                "mmap_ms": d["mmap_ms"],
                "hwsw_speedup": d["hwsw_speedup"],
            },
        )
        for depth, d in result["per_depth"].items()
    ]


@register_experiment(
    "depth-sensitivity",
    figure="Depth sensitivity (extension)",
    tags=("extension", "sensitivity"),
    collect=_collect,
    records=_records,
    render=render,
)
def _plan(cfg: ExperimentConfig) -> list:
    """One sampling-depth unit per configured hop count."""
    return [
        partial(_run_depth, "reddit", depth, cfg)
        for depth in DEPTH_FANOUTS
    ]
