"""GIDS vs ISP (extension): GPU-initiated reads against in-storage sampling.

SmartSAGE moves the sampler *into* the SSD; GIDS moves the storage
stack *onto the GPU*.  This experiment runs the two answers to the same
storage-bound problem head to head on identical workloads -- the mmap
baseline and SmartSAGE(HW/SW) under the event pipeline, the GIDS
designs under the GPU-initiated ``gids`` pipeline (features read from
storage over the PCIe BAR, no host bounce buffer) -- and records
end-to-end throughput plus the per-phase latency breakdown, BAR
traffic, and GPU software-cache hit rate of each arm.

Every unit is a declarative :class:`~repro.api.spec.RunSpec` executed
through a :class:`~repro.api.session.Session`, so a Campaign can spread
the arms across worker threads and the records are identical at any
``--jobs`` value.
"""

from __future__ import annotations

from repro.api.experiment import RunRecord, register_experiment
from repro.experiments.common import ExperimentConfig
from repro.experiments.report import format_table

__all__ = ["render", "DATASET", "ARMS"]

DATASET = "reddit"
#: (design, pipeline mode) arms, baseline first
ARMS = (
    ("ssd-mmap", "event"),
    ("smartsage-hwsw", "event"),
    ("gids-baseline", "gids"),
    ("gids-cached", "gids"),
)

_PIPELINE = dict(n_batches=24, n_workers=4)


def _unit_specs(cfg: ExperimentConfig) -> list:
    return [
        cfg.run_spec(DATASET, design, mode=mode, **_PIPELINE)
        for design, mode in ARMS
    ]


def _collect(cfg: ExperimentConfig, outputs: list) -> dict:
    arms: dict = {}
    for (design, mode), r in zip(ARMS, outputs):
        arms[design] = {
            "mode": mode,
            "throughput_batches_per_s": r.throughput_batches_per_s,
            "elapsed_s": r.elapsed_s,
            "per_batch_latency_s": r.per_batch_latency_s,
            "gpu_idle_fraction": r.gpu_idle_fraction,
            "phase_means": dict(r.phase_means),
            "bar_gb": r.backend_stats.get("bar_bytes", 0.0) / 1e9,
            "gpu_cache_hit_rate": r.backend_stats.get(
                "gpu_cache_hit_rate", 0.0
            ),
        }
    base = arms[ARMS[0][0]]["throughput_batches_per_s"]
    for arm in arms.values():
        arm["speedup_vs_mmap"] = (
            arm["throughput_batches_per_s"] / base if base else 0.0
        )
    return {"dataset": DATASET, "arms": arms}


def render(result: dict) -> str:
    rows = []
    for design, arm in result["arms"].items():
        rows.append(
            [
                design,
                arm["mode"],
                f"{arm['throughput_batches_per_s']:.1f}",
                f"{arm['speedup_vs_mmap']:.2f}x",
                f"{arm['gpu_idle_fraction']:.0%}",
                f"{arm['bar_gb']:.2f}",
                f"{arm['gpu_cache_hit_rate']:.0%}",
            ]
        )
    table = format_table(
        ["design", "mode", "batches/s", "speedup", "gpu idle",
         "BAR GB", "cache hit"],
        rows,
        title=(
            f"GIDS vs ISP [{result['dataset']}]: GPU-initiated direct "
            "access against in-storage sampling (speedups vs ssd-mmap)"
        ),
    )
    chunks = [table]
    for design, arm in result["arms"].items():
        phases = "  ".join(
            f"{phase}={mean * 1e3:.2f}ms"
            for phase, mean in arm["phase_means"].items()
        )
        chunks.append(f"{design:16s} {phases}")
    return "\n".join(chunks)


def _records(result: dict) -> list:
    records = []
    for design, arm in result["arms"].items():
        metrics = {
            k: v
            for k, v in arm.items()
            if k not in ("mode", "phase_means")
        }
        metrics.update(
            {
                f"phase_{phase}_s": mean
                for phase, mean in arm["phase_means"].items()
            }
        )
        records.append(
            RunRecord(
                experiment="gids-vs-isp",
                dataset=result["dataset"],
                design=design,
                params={"mode": arm["mode"]},
                metrics=metrics,
            )
        )
    return records


@register_experiment(
    "gids-vs-isp",
    figure="extension (GIDS vs ISP)",
    tags=("extension", "gids", "e2e"),
    collect=_collect,
    records=_records,
    render=render,
)
def _plan(cfg: ExperimentConfig) -> list:
    """One end-to-end run per (design, pipeline-mode) arm."""
    return _unit_specs(cfg)
