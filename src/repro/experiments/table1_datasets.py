"""Table I -- graph dataset information (paper stats + scaled instances).

Regenerates the paper's dataset table and reports, for each dataset, the
scaled synthetic instance this repo actually materializes (same average
degree, proportional node counts).
"""

from __future__ import annotations

from functools import partial

from repro.api.experiment import register_experiment, standard_records
from repro.experiments.common import (
    EVAL_DATASETS,
    ExperimentConfig,
    scaled_instance,
)
from repro.experiments.report import format_table
from repro.graph.datasets import IN_MEMORY, LARGE_SCALE, table1_rows

__all__ = ["render"]


def _run_dataset(name: str, cfg: ExperimentConfig) -> tuple:
    inmem = scaled_instance(name, cfg, variant=IN_MEMORY)
    large = scaled_instance(name, cfg, variant=LARGE_SCALE)
    return name, {
        "inmem_nodes": inmem.num_nodes,
        "inmem_edges": inmem.num_edges,
        "inmem_avg_degree": inmem.graph.average_degree,
        "large_nodes": large.num_nodes,
        "large_edges": large.num_edges,
        "large_avg_degree": large.graph.average_degree,
        "large_edge_list_mb": large.edge_list_bytes() / 2 ** 20,
    }


def _collect(cfg: ExperimentConfig, outputs: list) -> dict:
    paper = {row["dataset"]: row for row in table1_rows()}
    return {"paper": paper, "instances": dict(outputs), "cfg": cfg}


def render(result: dict) -> str:
    paper, instances = result["paper"], result["instances"]
    rows = []
    for name in EVAL_DATASETS:
        p, i = paper[name], instances[name]
        rows.append(
            [
                name,
                f"{p['inmem_nodes'] / 1e6:.2f}M",
                f"{p['inmem_edges'] / 1e9:.2f}B",
                f"{p['large_nodes'] / 1e6:.1f}M",
                f"{p['large_edges'] / 1e9:.1f}B",
                p["features"],
                i["large_nodes"],
                i["large_edges"],
                f"{i['large_avg_degree']:.0f}",
            ]
        )
    return format_table(
        [
            "dataset", "paper-mem-N", "paper-mem-E", "paper-big-N",
            "paper-big-E", "feat", "scaled-N", "scaled-E", "scaled-deg",
        ],
        rows,
        title="Table I: dataset information (paper stats vs scaled instances)",
    )


def _records(result: dict) -> list:
    return standard_records(
        "table1", result, per_dataset_key="instances"
    )


@register_experiment(
    "table1",
    figure="Table I",
    tags=("paper", "datasets"),
    collect=_collect,
    records=_records,
    render=render,
)
def _plan(cfg: ExperimentConfig) -> list:
    """One dataset-scaling unit per Table I dataset."""
    return [partial(_run_dataset, name, cfg) for name in EVAL_DATASETS]
