"""Fidelity validation: analytic vs event mode.

The analytic mode composes closed-form per-batch costs; the event mode
runs the same work through the discrete-event simulator with shared
resources.  For a single uncontended worker the two must agree closely;
under contention the event mode is authoritative and the analytic mode
under-predicts (it ignores queueing).  This experiment quantifies both.
"""

from __future__ import annotations

from functools import partial

from repro.api.experiment import RunRecord, register_experiment
from repro.experiments.common import (
    ExperimentConfig,
    build_eval_system,
    make_workloads,
    sampling_throughput,
    scaled_instance,
    steady_state_cost,
)
from repro.experiments.report import format_table

__all__ = ["render"]

_DESIGNS = ("ssd-mmap", "smartsage-sw", "smartsage-hwsw")


def _run_design(
    dataset_name: str, design: str, cfg: ExperimentConfig
) -> tuple:
    ds = scaled_instance(dataset_name, cfg)
    workloads = make_workloads(ds, cfg)
    system = build_eval_system(design, ds, cfg)
    analytic = steady_state_cost(
        system.sampling_engine, workloads, cfg.warmup_batches
    ).total_s
    event_1w = 1.0 / sampling_throughput(
        design, ds, workloads, cfg, n_workers=1, n_batches=8
    )
    event_8w = 1.0 / sampling_throughput(
        design, ds, workloads, cfg, n_workers=8, n_batches=24
    )
    return design, {
        "analytic_ms": analytic * 1e3,
        "event_1w_ms": event_1w * 1e3,
        "event_8w_interval_ms": event_8w * 1e3,
        "agreement_1w": event_1w / analytic,
        # contention factor: how much slower than ideal scaling
        "contention_8w": (event_8w * 8) / event_1w,
    }


def _collect(cfg: ExperimentConfig, outputs: list) -> dict:
    return {"dataset": "reddit", "designs": dict(outputs)}


def render(result: dict) -> str:
    rows = [
        [design,
         f"{d['analytic_ms']:.2f}",
         f"{d['event_1w_ms']:.2f}",
         f"{d['agreement_1w']:.2f}",
         f"{d['contention_8w']:.2f}"]
        for design, d in result["designs"].items()
    ]
    return format_table(
        ["design", "analytic ms", "event 1w ms",
         "event/analytic (1w)", "8w contention factor"],
        rows,
        title=f"Fidelity [{result['dataset']}]: analytic vs event mode "
              "(1w should agree; contention factor >1 under load)",
    )


def _records(result: dict) -> list:
    return [
        RunRecord(
            experiment="fidelity",
            dataset=result["dataset"],
            design=design,
            metrics=d,
        )
        for design, d in result["designs"].items()
    ]


@register_experiment(
    "fidelity",
    figure="Analytic-vs-event validation",
    tags=("extension", "validation"),
    collect=_collect,
    records=_records,
    render=render,
)
def _plan(cfg: ExperimentConfig) -> list:
    """One analytic-vs-event fidelity unit per design point."""
    return [
        partial(_run_design, "reddit", design, cfg)
        for design in _DESIGNS
    ]
