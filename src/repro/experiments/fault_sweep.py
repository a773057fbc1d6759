"""Fault sweep (extension): training throughput vs. injected fault rate.

Drives the deterministic fault-injection layer (:mod:`repro.faults`)
across the three event-driven backends that exercise distinct fault
surfaces -- host-mediated SSD reads (``event``), GPU-initiated BAR
reads (``gids``), and the multi-host fabric (``distributed``) -- and
measures how throughput degrades as the fault rate climbs.  A single
scalar ``rate`` parameterizes the whole plan: flash read errors at
``rate``, NVMe command timeouts at ``rate/10`` (timeouts are rarer
than ECC retries on real devices), link flaps at ``rate``, and host
failures at ``min(10 * rate, 1)`` per run (so the recovery path shows
up within small sweeps).

Rate 0 runs with ``faults`` *unset* -- not a zero-rate plan -- so the
sweep's own baseline doubles as a parity check against the pre-fault
pipeline (the fault tests pin zero-rate == unset byte-for-byte).

Every unit is a declarative :class:`~repro.api.spec.RunSpec`; the
``faults`` section rides inside :class:`~repro.api.spec.SystemSpec`,
so campaign records and the result store key fault points like any
other sweep axis.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.api.experiment import RunRecord, register_experiment
from repro.experiments.common import ExperimentConfig
from repro.experiments.report import format_table
from repro.faults import FaultPlan

__all__ = [
    "render", "DATASET", "FAULT_RATES", "SWEEP_MODES",
    "plan_for_rate",
]

DATASET = "reddit"
FAULT_RATES = (0.0, 1e-4, 1e-3, 1e-2)

#: (mode, design, extra pipeline kwargs) -- one fault surface each
SWEEP_MODES = (
    ("event", "ssd-mmap", {}),
    ("gids", "gids-baseline", {}),
    ("distributed", "smartsage-sharded", {"n_hosts": 4}),
)

_PIPELINE = dict(n_batches=16, n_workers=4)


def plan_for_rate(rate: float, seed: int = 0) -> Optional[FaultPlan]:
    """The sweep's fault plan for one scalar rate (None at rate 0)."""
    if rate <= 0.0:
        return None
    return FaultPlan(
        seed=seed,
        flash_read_error_rate=rate,
        nvme_timeout_rate=rate / 10.0,
        link_flap_rate=rate,
        host_fail_rate=min(10.0 * rate, 1.0),
    )


def _unit_specs(cfg: ExperimentConfig) -> list:
    specs = []
    for mode, design, extra in SWEEP_MODES:
        for rate in FAULT_RATES:
            spec = cfg.run_spec(DATASET, design, mode=mode, **_PIPELINE)
            system = dataclasses.replace(
                spec.system,
                faults=plan_for_rate(rate, seed=cfg.seed),
                **{k: v for k, v in extra.items() if k == "n_hosts"},
            )
            specs.append(spec.replace(system=system))
    return specs


_FAULT_COUNTERS = (
    "fault_flash_rereads",
    "fault_nvme_timeouts",
    "fault_link_retransmits",
    "fault_host_failures",
    "fault_host_recovery_s",
)


def _collect(cfg: ExperimentConfig, outputs: list) -> dict:
    per_mode: dict = {}
    it = iter(outputs)
    for mode, design, _ in SWEEP_MODES:
        points = {}
        for rate in FAULT_RATES:
            r = next(it)
            bs = r.backend_stats
            point = {
                "throughput_batches_per_s": r.throughput_batches_per_s,
                "elapsed_s": r.elapsed_s,
                "batch_mean_s": (
                    r.elapsed_s / r.n_batches if r.n_batches else 0.0
                ),
                "gpu_idle_fraction": r.gpu_idle_fraction,
            }
            for counter in _FAULT_COUNTERS:
                point[counter] = float(bs.get(counter, 0.0))
            points[rate] = point
        clean = points[FAULT_RATES[0]]["throughput_batches_per_s"]
        for rate, p in points.items():
            p["slowdown_vs_clean"] = (
                clean / p["throughput_batches_per_s"]
                if p["throughput_batches_per_s"]
                else 0.0
            )
        per_mode[f"{mode}:{design}"] = points
    return {
        "dataset": DATASET,
        "fault_rates": list(FAULT_RATES),
        "per_mode": per_mode,
    }


def render(result: dict) -> str:
    chunks = []
    for mode, points in result["per_mode"].items():
        rows = []
        for rate, p in points.items():
            rows.append(
                [
                    f"{rate:g}",
                    f"{p['throughput_batches_per_s']:.1f}",
                    f"{p['slowdown_vs_clean']:.3f}x",
                    f"{p['gpu_idle_fraction']:.0%}",
                    f"{p['fault_flash_rereads']:.0f}",
                    f"{p['fault_nvme_timeouts']:.0f}",
                    f"{p['fault_link_retransmits']:.0f}",
                    f"{p['fault_host_failures']:.0f}",
                ]
            )
        chunks.append(
            format_table(
                ["fault rate", "batches/s", "slowdown", "gpu idle",
                 "rereads", "timeouts", "retransmits", "host fails"],
                rows,
                title=(
                    f"Fault sweep [{result['dataset']}]: {mode} "
                    "(seeded deterministic injection)"
                ),
            )
        )
    return "\n\n".join(chunks)


def _records(result: dict) -> list:
    records = []
    for mode, points in result["per_mode"].items():
        backend, design = mode.split(":", 1)
        for rate, p in points.items():
            records.append(
                RunRecord(
                    experiment="fault-sweep",
                    dataset=result["dataset"],
                    design=design,
                    params={"mode": backend, "fault_rate": float(rate)},
                    metrics=dict(p),
                )
            )
    return records


@register_experiment(
    "fault-sweep",
    figure="extension (fault injection / degraded operation)",
    tags=("extension", "faults", "e2e"),
    collect=_collect,
    records=_records,
    render=render,
)
def _plan(cfg: ExperimentConfig) -> list:
    """One end-to-end run per (backend, fault rate) grid point."""
    return _unit_specs(cfg)
