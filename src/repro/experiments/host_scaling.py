"""Host scaling (extension): throughput + network bytes vs. host count.

The distributed backend's headline curve: partition the graph across K
hosts (``mode="distributed"``, each host a sharded device group over
the simulated rack fabric) and measure end-to-end training throughput
alongside the per-class network-bytes breakdown -- remote-sampling
RPCs, feature pulls, and gradient all-reduce.  Expected shape:
throughput grows sub-linearly with K while the cross-host byte counts
grow (cut fraction approaches ``1 - 1/K``); with K=1 the run reproduces
the ``sharded`` backend exactly and every network counter is zero.

Every unit is a declarative :class:`~repro.api.spec.RunSpec` executed
through a :class:`~repro.api.session.Session`, so a Campaign can spread
the host-count grid across worker threads.
"""

from __future__ import annotations

import dataclasses

from repro.api.experiment import RunRecord, register_experiment
from repro.experiments.common import ExperimentConfig
from repro.experiments.report import format_table

__all__ = [
    "render", "DATASET", "HOST_COUNTS", "HOST_DESIGNS",
]

DATASET = "reddit"
HOST_COUNTS = (1, 2, 4, 8)
HOST_DESIGNS = ("smartsage-sharded",)

_PIPELINE = dict(mode="distributed", n_batches=24, n_workers=4)


def _unit_specs(cfg: ExperimentConfig) -> list:
    specs = []
    for design in HOST_DESIGNS:
        for k in HOST_COUNTS:
            spec = cfg.run_spec(DATASET, design, **_PIPELINE)
            specs.append(
                spec.replace(
                    system=dataclasses.replace(spec.system, n_hosts=k)
                )
            )
    return specs


def _collect(cfg: ExperimentConfig, outputs: list) -> dict:
    per_design: dict = {}
    it = iter(outputs)
    for design in HOST_DESIGNS:
        points = {}
        for k in HOST_COUNTS:
            r = next(it)
            bs = r.backend_stats
            points[k] = {
                "throughput_batches_per_s": r.throughput_batches_per_s,
                "elapsed_s": r.elapsed_s,
                "gpu_idle_fraction": r.gpu_idle_fraction,
                "host_cut_fraction": bs.get("host_cut_fraction", 0.0),
                "sampling_rpc_gb": bs.get(
                    "net_sampling_rpc_bytes", 0.0
                ) / 1e9,
                "feature_pull_gb": bs.get(
                    "net_feature_pull_bytes", 0.0
                ) / 1e9,
                "allreduce_gb": bs.get("net_allreduce_bytes", 0.0) / 1e9,
                "net_gb": bs.get("net_bytes", 0.0) / 1e9,
                "shuffle_gb": bs.get("shuffle_bytes", 0.0) / 1e9,
            }
        base = points[HOST_COUNTS[0]]["throughput_batches_per_s"]
        for k, p in points.items():
            p["speedup_vs_1"] = (
                p["throughput_batches_per_s"] / base if base else 0.0
            )
            p["scaling_efficiency"] = p["speedup_vs_1"] / k
        per_design[design] = points
    return {
        "dataset": DATASET,
        "host_counts": list(HOST_COUNTS),
        "per_design": per_design,
    }


def render(result: dict) -> str:
    chunks = []
    for design, points in result["per_design"].items():
        rows = []
        for k, p in points.items():
            rows.append(
                [
                    k,
                    f"{p['throughput_batches_per_s']:.1f}",
                    f"{p['speedup_vs_1']:.2f}x",
                    f"{p['scaling_efficiency']:.0%}",
                    f"{p['host_cut_fraction']:.0%}",
                    f"{p['sampling_rpc_gb']:.3f}",
                    f"{p['feature_pull_gb']:.3f}",
                    f"{p['allreduce_gb']:.3f}",
                ]
            )
        chunks.append(
            format_table(
                ["hosts", "batches/s", "speedup", "efficiency",
                 "host cut", "rpc GB", "pull GB", "allreduce GB"],
                rows,
                title=(
                    f"Host scaling [{result['dataset']}]: {design} "
                    "(distributed mode, rack fabric)"
                ),
            )
        )
    return "\n\n".join(chunks)


def _records(result: dict) -> list:
    records = []
    for design, points in result["per_design"].items():
        for k, p in points.items():
            records.append(
                RunRecord(
                    experiment="host-scaling",
                    dataset=result["dataset"],
                    design=design,
                    params={"n_hosts": int(k), "mode": "distributed"},
                    metrics=dict(p),
                )
            )
    return records


@register_experiment(
    "host-scaling",
    figure="extension (distributed scale-out)",
    tags=("extension", "distributed", "e2e"),
    collect=_collect,
    records=_records,
    render=render,
)
def _plan(cfg: ExperimentConfig) -> list:
    """One distributed end-to-end run per (design, host count) point."""
    return _unit_specs(cfg)
