"""Cache hierarchy (extension): tier stacks x policies on one system.

Sweeps the tiered feature-cache subsystem (:mod:`repro.cache`) on the
GPU-initiated design: every stack in :data:`TIER_STACKS` crossed with
every replacement policy in :data:`POLICIES`, plus the legacy
single-LRU arm (``cache_tiers=None``) as the baseline.  The HBM tier is
deliberately budgeted far below the page working set so the stack has
to ladder: pages that thrash the small HBM LRU land in the peer GPU's
NVLink tier or the pinned-host UVA window instead of replaying flash
reads.  Each arm records the per-tier hit ladder (hits and bytes per
level), the end-to-end hit rate, and throughput -- the quantities that
show where cache architecture, not capacity alone, changes the
storage-offload story.

Every unit is a declarative :class:`~repro.api.spec.RunSpec` executed
through a :class:`~repro.api.session.Session`, so a Campaign can spread
the arms across worker threads and the records are identical at any
``--jobs`` value.
"""

from __future__ import annotations

import dataclasses

from repro.api.experiment import RunRecord, register_experiment
from repro.experiments.common import ExperimentConfig
from repro.experiments.report import format_table

__all__ = [
    "render", "DATASET", "TIER_STACKS", "POLICIES",
    "HBM_MB",
]

DATASET = "reddit"
#: tier stacks under test, nearest level first
TIER_STACKS = (
    ("hbm",),
    ("hbm", "peer"),
    ("hbm", "peer", "uva"),
)
#: replacement policies shared by every tier of a stack
POLICIES = ("lru", "clock", "static")
#: HBM budget (MiB) -- small on purpose, so the stack must ladder
HBM_MB = 0.125

_PIPELINE = dict(mode="gids", n_batches=16, n_workers=4)


def _arms():
    """(label, cache_tiers, cache_policy) per arm; baseline first."""
    arms = [("legacy-lru", None, None)]
    for tiers in TIER_STACKS:
        for policy in POLICIES:
            arms.append(("+".join(tiers) + f"/{policy}", tiers, policy))
    return arms


def _unit_specs(cfg: ExperimentConfig) -> list:
    specs = []
    for _label, tiers, policy in _arms():
        spec = cfg.run_spec(DATASET, "gids-cached", **_PIPELINE)
        specs.append(
            spec.replace(
                system=dataclasses.replace(
                    spec.system,
                    gpu_cache_mb=HBM_MB,
                    cache_tiers=tiers,
                    cache_policy=policy,
                )
            )
        )
    return specs


def _collect(cfg: ExperimentConfig, outputs: list) -> dict:
    arms: dict = {}
    for (label, tiers, policy), r in zip(_arms(), outputs):
        stats = r.backend_stats
        tier_hits = {
            name: stats.get(f"cache_{name}_hits", 0.0)
            for name in (tiers or ("hbm",))
        }
        tier_bytes = {
            name: stats.get(f"cache_{name}_hit_bytes", 0.0)
            for name in (tiers or ("hbm",))
        }
        arms[label] = {
            "tiers": list(tiers) if tiers else None,
            "policy": policy,
            "throughput_batches_per_s": r.throughput_batches_per_s,
            "elapsed_s": r.elapsed_s,
            "gpu_idle_fraction": r.gpu_idle_fraction,
            "hit_rate": stats.get("gpu_cache_hit_rate", 0.0),
            "tier_hits": tier_hits,
            "tier_hit_bytes": tier_bytes,
            "cache_misses": stats.get("cache_misses", 0.0),
        }
    base = arms["legacy-lru"]["throughput_batches_per_s"]
    for arm in arms.values():
        arm["speedup_vs_legacy"] = (
            arm["throughput_batches_per_s"] / base if base else 0.0
        )
    return {"dataset": DATASET, "hbm_mb": HBM_MB, "arms": arms}


def render(result: dict) -> str:
    rows = []
    for label, arm in result["arms"].items():
        ladder = " ".join(
            f"{name}:{int(hits)}"
            for name, hits in arm["tier_hits"].items()
        )
        rows.append(
            [
                label,
                f"{arm['throughput_batches_per_s']:.1f}",
                f"{arm['speedup_vs_legacy']:.2f}x",
                f"{arm['hit_rate']:.0%}",
                ladder,
            ]
        )
    return format_table(
        ["stack/policy", "batches/s", "speedup", "hit rate",
         "tier hits"],
        rows,
        title=(
            f"Cache hierarchy [{result['dataset']}]: tier stacks x "
            f"replacement policies, {result['hbm_mb']:.2g} MiB HBM "
            "(speedups vs the legacy single-LRU arm)"
        ),
    )


def _records(result: dict) -> list:
    records = []
    for label, arm in result["arms"].items():
        metrics = {
            "throughput_batches_per_s": arm["throughput_batches_per_s"],
            "elapsed_s": arm["elapsed_s"],
            "gpu_idle_fraction": arm["gpu_idle_fraction"],
            "hit_rate": arm["hit_rate"],
            "cache_misses": arm["cache_misses"],
            "speedup_vs_legacy": arm["speedup_vs_legacy"],
        }
        for name, hits in arm["tier_hits"].items():
            metrics[f"tier_{name}_hits"] = hits
        for name, nbytes in arm["tier_hit_bytes"].items():
            metrics[f"tier_{name}_hit_bytes"] = nbytes
        records.append(
            RunRecord(
                experiment="cache-hierarchy",
                dataset=result["dataset"],
                design="gids-cached",
                params={
                    "stack": label,
                    "policy": arm["policy"] or "lru",
                },
                metrics=metrics,
            )
        )
    return records


@register_experiment(
    "cache-hierarchy",
    figure="extension (tiered feature cache)",
    tags=("extension", "cache", "gids", "e2e"),
    collect=_collect,
    records=_records,
    render=render,
)
def _plan(cfg: ExperimentConfig) -> list:
    """One end-to-end run per (tier stack, policy) arm."""
    return _unit_specs(cfg)
