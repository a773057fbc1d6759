"""Fig 5 -- LLC miss rate and DRAM bandwidth utilization during sampling.

Paper finding: in-memory neighbor sampling misses the LLC ~62% of the
time on average yet uses only ~21% of the 125 GB/s DRAM bandwidth --
fine-grained 8-byte reads make it latency bound, not throughput bound.

We regenerate the measurement by feeding the sampler's actual byte-address
trace through a set-associative LLC simulator, with the LLC scaled down in
proportion to the scaled datasets (see :mod:`repro.config`).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.api.experiment import register_experiment
from repro.config import scaled_hardware
from repro.experiments.common import (
    EVAL_DATASETS,
    ExperimentConfig,
    scaled_instance,
)
from repro.experiments.report import format_table
from repro.gnn.sampler import NeighborSampler, sampling_access_trace
from repro.graph.datasets import IN_MEMORY
from repro.memory.hierarchy import MemoryHierarchy

__all__ = ["render", "PAPER_AVG_MISS", "PAPER_AVG_BW"]

PAPER_AVG_MISS = 0.62
PAPER_AVG_BW = 0.21

#: LLC scaled with the datasets (32 MiB against the paper's tens of GB).
_LLC_BYTES = 2 * 1024 * 1024
#: sampled batches per dataset, and the concurrent samplers they model
_N_BATCHES = 3
_WORKERS = 12


def _run_dataset(name: str, cfg: ExperimentConfig) -> tuple:
    hw = scaled_hardware(llc_bytes=_LLC_BYTES)
    ds = scaled_instance(name, cfg, variant=IN_MEMORY)
    sampler = NeighborSampler(
        ds.graph, fanouts=cfg.fanouts, record_positions=True
    )
    hierarchy = MemoryHierarchy(llc=hw.llc, dram=hw.dram)
    rng = np.random.default_rng(cfg.seed)
    miss = bw = 0.0
    for _ in range(_N_BATCHES):
        seeds = rng.integers(0, ds.num_nodes, size=cfg.batch_size)
        batch = sampler.sample_batch(seeds, rng)
        trace = sampling_access_trace(ds.graph, batch)
        result = hierarchy.characterize(trace, workers=_WORKERS)
        miss += result.llc_miss_rate
        bw += result.dram_bw_utilization
    return name, {
        "llc_miss_rate": miss / _N_BATCHES,
        "dram_bw_utilization": bw / _N_BATCHES,
    }


def _collect(cfg: ExperimentConfig, outputs: list) -> dict:
    per_dataset = dict(outputs)
    avg_miss = float(
        np.mean([v["llc_miss_rate"] for v in per_dataset.values()])
    )
    avg_bw = float(
        np.mean([v["dram_bw_utilization"] for v in per_dataset.values()])
    )
    return {
        "per_dataset": per_dataset,
        "avg_miss_rate": avg_miss,
        "avg_bw_utilization": avg_bw,
        "paper": {"miss": PAPER_AVG_MISS, "bw": PAPER_AVG_BW},
    }


def render(result: dict) -> str:
    rows = [
        [name, f"{v['llc_miss_rate']:.0%}", f"{v['dram_bw_utilization']:.0%}"]
        for name, v in result["per_dataset"].items()
    ]
    rows.append(
        [
            "AVERAGE",
            f"{result['avg_miss_rate']:.0%}",
            f"{result['avg_bw_utilization']:.0%}",
        ]
    )
    rows.append(["paper avg", "62%", "21%"])
    return format_table(
        ["dataset", "LLC miss rate", "DRAM BW util"],
        rows,
        title="Fig 5: neighbor sampling memory characterization "
              "(in-memory processing)",
    )


@register_experiment(
    "fig05",
    figure="Figure 5",
    tags=("paper", "characterization", "memory"),
    collect=_collect,
    render=render,
)
def _plan(cfg: ExperimentConfig) -> list:
    """One LLC/DRAM characterization unit per Table I dataset."""
    return [partial(_run_dataset, name, cfg) for name in EVAL_DATASETS]
