"""Fig 17 -- SmartSAGE(HW/SW) vs SmartSAGE(SW) as workers scale 1 -> 12.

Paper finding: the HW/SW-over-SW speedup shrinks as CPU-side workers are
added, because the OpenSSD's dual wimpy cores time-share ISP sampling with
the base firmware and saturate, while the host path keeps scaling longer.
"""

from __future__ import annotations

from functools import partial

from repro.api.experiment import RunRecord, register_experiment
from repro.experiments.common import (
    EVAL_DATASETS,
    ExperimentConfig,
    scaled_instance,
    session_for,
)
from repro.experiments.report import format_table

__all__ = ["render", "WORKER_COUNTS"]

WORKER_COUNTS = (1, 2, 4, 8, 12)


def _run_dataset(name: str, cfg: ExperimentConfig) -> tuple:
    session = session_for(scaled_instance(name, cfg), cfg)
    speedups = {}
    for workers in WORKER_COUNTS:
        batches = max(8, 3 * workers)
        hwsw = session.sampling_throughput(
            "smartsage-hwsw", n_workers=workers, n_batches=batches
        )
        sw = session.sampling_throughput(
            "smartsage-sw", n_workers=workers, n_batches=batches
        )
        speedups[workers] = hwsw / sw
    return name, speedups


def _collect(cfg: ExperimentConfig, outputs: list) -> dict:
    return {"per_dataset": dict(outputs), "worker_counts": WORKER_COUNTS}


def render(result: dict) -> str:
    counts = result["worker_counts"]
    rows = []
    for name, speedups in result["per_dataset"].items():
        rows.append(
            [name] + [f"{speedups[w]:.2f}x" for w in counts]
        )
    rows.append(
        ["paper (typical)"]
        + ["~6.6x" if w == 1 else ("~2x" if w == counts[-1] else "...")
           for w in counts]
    )
    table = format_table(
        ["dataset"] + [f"{w}w" for w in counts],
        rows,
        title="Fig 17: SmartSAGE(HW/SW) speedup over SmartSAGE(SW) "
              "vs number of CPU-side workers",
    )
    declines = all(
        speedups[counts[0]] > speedups[counts[-1]]
        for speedups in result["per_dataset"].values()
    )
    note = (
        "\n=> speedup declines with worker count on every dataset "
        "(embedded cores saturate), as in the paper."
        if declines
        else "\nWARNING: expected declining trend not observed!"
    )
    return table + note


def _records(result: dict) -> list:
    return [
        RunRecord(
            experiment="fig17",
            dataset=name,
            params={"n_workers": workers},
            metrics={"hwsw_over_sw_speedup": speedup},
        )
        for name, speedups in result["per_dataset"].items()
        for workers, speedup in speedups.items()
    ]


@register_experiment(
    "fig17",
    figure="Figure 17",
    tags=("paper", "sampling", "multi-worker", "scaling"),
    collect=_collect,
    records=_records,
    render=render,
)
def _plan(cfg: ExperimentConfig) -> list:
    """One worker-scaling sweep unit per Table I dataset."""
    return [partial(_run_dataset, name, cfg) for name in EVAL_DATASETS]
