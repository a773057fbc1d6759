"""Service traffic (extension): open-loop spec serving under load.

Stress-drives :class:`~repro.service.server.CampaignService` the way
the ROADMAP's serving direction implies it will be used: hundreds of
heterogeneous :class:`~repro.api.spec.RunSpec` submissions -- a mix of
event, sharded, GIDS, and distributed runs -- arriving as an open-loop
Poisson process with Zipf-skewed spec popularity, replayed against a
live service while it drains.  Reported: end-to-end latency
percentiles (p50/p95/p99), queue depth, worker utilization, and the
result-store hit rate.  Expected shape: the first arrival of each
unique spec pays full simulation latency; the Zipf tail is answered
from the store (or coalesced onto an in-flight computation), so the
served fraction climbs toward the trace's repeat fraction and p50 sits
orders of magnitude below p99.

The unit here is the *service run itself* (a zero-argument callable),
not a grid of RunSpecs -- the service is the executor under test.
"""

from __future__ import annotations

import tempfile
import threading
import time
from functools import partial

from repro.api.experiment import RunRecord, register_experiment
from repro.experiments.common import ExperimentConfig
from repro.experiments.report import format_table

__all__ = [
    "render", "N_JOBS", "RATE_JOBS_PER_S", "N_SPECS", "WORKERS",
    "EXECUTOR",
]

N_JOBS = 200            # "hundreds" of submissions
RATE_JOBS_PER_S = 120.0  # open-loop arrival rate
N_SPECS = 21            # distinct specs (7 templates x 3 datasets)
WORKERS = 2
EXECUTOR = "thread"


def _replay(cfg: ExperimentConfig) -> dict:
    """Replay one traffic trace against a live draining service.

    Spec scale rides the experiment config's knobs divided down
    (traffic measures *serving*, not single-run simulation depth).
    The service state lives in a throwaway directory -- a cold store,
    so the measured hit rate comes from within-trace repetition only.
    """
    from repro.service.server import CampaignService
    from repro.service.traffic import (
        generate_traffic,
        replay,
        spec_pool,
        traffic_summary,
    )

    pool = spec_pool(
        N_SPECS,
        edge_budget=max(2e4, cfg.edge_budget / 20),
        batch_size=max(8, cfg.batch_size // 8),
        n_batches=4,
        seed=cfg.seed,
    )
    traffic = generate_traffic(
        N_JOBS, RATE_JOBS_PER_S, pool, seed=cfg.seed
    )
    state = tempfile.mkdtemp(prefix="service-traffic-")
    start = time.monotonic()
    with CampaignService(
        state, workers=WORKERS, executor=EXECUTOR
    ) as service:
        arrivals = threading.Thread(
            target=replay, args=(service, traffic), daemon=True
        )
        arrivals.start()
        # drain alongside the arrival process; each drain pass returns
        # at idle, so keep going until the trace is fully replayed too
        while arrivals.is_alive() or not service.idle():
            service.drain(stop_when_idle=True, max_wall_s=0.25)
        arrivals.join()
        report = service.report(time.monotonic() - start)
    shape = traffic_summary(traffic)
    store = report.store
    lookups = store.get("hits", 0) + store.get("misses", 0)
    return {
        "workers": WORKERS,
        "executor": EXECUTOR,
        "traffic": shape,
        "report": report.to_json_obj(),
        "latency_ms": {
            k: v * 1e3 for k, v in report.latency.items()
        },
        "queue_depth_mean": report.queue_depth_mean,
        "queue_depth_max": report.queue_depth_max,
        "worker_utilization": report.worker_utilization,
        "served_fraction": report.served_fraction,
        "cache_hit_rate": (
            store.get("hits", 0) / lookups if lookups else 0.0
        ),
        "throughput_jobs_per_s": report.throughput_jobs_per_s,
        "jobs_done": report.jobs_completed,
        "jobs_failed": report.counts.get("failed", 0),
    }


def _collect(cfg: ExperimentConfig, outputs: list) -> dict:
    return outputs[0]


def render(result: dict) -> str:
    shape = result["traffic"]
    lat = result["latency_ms"]
    rows = [
        ["jobs", f"{result['jobs_done']} done, "
                 f"{result['jobs_failed']} failed"],
        ["unique specs", f"{shape['n_unique_specs']} "
                         f"(hottest {shape['hottest_spec_share']:.0%})"],
        ["latency p50/p95/p99", f"{lat['p50']:.1f} / {lat['p95']:.1f} / "
                                f"{lat['p99']:.1f} ms"],
        ["queue depth", f"mean {result['queue_depth_mean']:.1f}, "
                        f"max {result['queue_depth_max']}"],
        ["worker utilization", f"{result['worker_utilization']:.0%}"],
        ["served fraction", f"{result['served_fraction']:.0%}"],
        ["store hit rate", f"{result['cache_hit_rate']:.0%}"],
        ["throughput", f"{result['throughput_jobs_per_s']:.1f} jobs/s"],
    ]
    return format_table(
        ["metric", "value"],
        rows,
        title=(
            f"Service traffic: {shape['n_jobs']} arrivals over "
            f"{result['workers']} {result['executor']} worker(s)"
        ),
    )


def _records(result: dict) -> list:
    shape = result["traffic"]
    lat = result["latency_ms"]
    return [
        RunRecord(
            experiment="service-traffic",
            params={
                "workers": result["workers"],
                "executor": result["executor"],
                "n_jobs": shape["n_jobs"],
                "n_unique_specs": shape["n_unique_specs"],
            },
            metrics={
                "latency_p50_ms": lat["p50"],
                "latency_p95_ms": lat["p95"],
                "latency_p99_ms": lat["p99"],
                "queue_depth_mean": result["queue_depth_mean"],
                "queue_depth_max": result["queue_depth_max"],
                "worker_utilization": result["worker_utilization"],
                "served_fraction": result["served_fraction"],
                "cache_hit_rate": result["cache_hit_rate"],
                "throughput_jobs_per_s": result[
                    "throughput_jobs_per_s"
                ],
                "jobs_done": result["jobs_done"],
                "jobs_failed": result["jobs_failed"],
            },
        )
    ]


@register_experiment(
    "service-traffic",
    figure="extension (campaign-as-a-service)",
    tags=("extension", "service", "e2e"),
    collect=_collect,
    records=_records,
    render=render,
)
def _plan(cfg: ExperimentConfig) -> list:
    """One unit: the full traffic replay against a live service."""
    return [partial(_replay, cfg)]
