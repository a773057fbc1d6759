"""Fig 13 -- degree distributions before/after Kronecker fractal expansion.

Paper finding: fractal expansion grows nodes and edges dramatically while
the power-law shape of the degree distribution is preserved, and (per the
densification power law) the expanded graphs have *higher* average degree.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.api.experiment import RunRecord, register_experiment
from repro.experiments.common import ExperimentConfig, scaled_instance
from repro.experiments.report import format_table
from repro.graph.datasets import DATASETS, IN_MEMORY
from repro.graph.degree import (
    distribution_summary,
    log_binned_histogram,
    shape_similarity,
)
from repro.graph.kronecker import (
    expansion_factors,
    kronecker_expand,
    seed_graph_for,
)

__all__ = ["render"]

#: the subset of datasets the paper plots in Fig 13
FIG13_DATASETS = ("reddit", "protein-pi")

#: scaled-down expansion multipliers (the paper's Reddit multiplier is
#: 160x nodes / 470x edges; we use smaller seeds at repo scale)
_SEEDS = {"reddit": (8, 24), "protein-pi": (5, 14)}


def _run_dataset(name: str, cfg: ExperimentConfig) -> tuple:
    base = scaled_instance(name, cfg, variant=IN_MEMORY)
    node_mult, edge_mult = _SEEDS.get(
        name, (4, 12)
    )
    rng = np.random.default_rng(cfg.seed)
    seed = seed_graph_for(node_mult, edge_mult, rng)
    expanded = kronecker_expand(base.graph, seed)
    return name, {
        "base": distribution_summary(base.graph),
        "expanded": distribution_summary(expanded),
        "factors": expansion_factors(base.graph, expanded),
        "shape_similarity": shape_similarity(base.graph, expanded),
        "base_hist": log_binned_histogram(base.graph),
        "expanded_hist": log_binned_histogram(expanded),
        "paper_multipliers": (
            DATASETS[name].node_multiplier,
            DATASETS[name].edge_multiplier,
        ),
    }


def _collect(cfg: ExperimentConfig, outputs: list) -> dict:
    return {"per_dataset": dict(outputs)}


def render(result: dict) -> str:
    rows = []
    for name, d in result["per_dataset"].items():
        rows.append(
            [
                name,
                d["base"]["nodes"],
                d["expanded"]["nodes"],
                f"{d['base']['avg_degree']:.1f}",
                f"{d['expanded']['avg_degree']:.1f}",
                "yes" if d["factors"]["densified"] else "no",
                f"{d['shape_similarity']:.3f}",
                f"{d['base']['powerlaw_r2']:.2f}/"
                f"{d['expanded']['powerlaw_r2']:.2f}",
            ]
        )
    return format_table(
        [
            "dataset", "nodes", "nodes(exp)", "deg", "deg(exp)",
            "densified", "shape-sim", "powerlaw R2 (base/exp)",
        ],
        rows,
        title="Fig 13: Kronecker fractal expansion preserves the "
              "power-law degree shape while densifying",
    )


def _records(result: dict) -> list:
    records = []
    for name, d in result["per_dataset"].items():
        records.append(
            RunRecord(
                experiment="fig13",
                dataset=name,
                metrics={
                    "base_nodes": d["base"]["nodes"],
                    "expanded_nodes": d["expanded"]["nodes"],
                    "base_avg_degree": d["base"]["avg_degree"],
                    "expanded_avg_degree": d["expanded"]["avg_degree"],
                    "shape_similarity": d["shape_similarity"],
                    "densified": float(d["factors"]["densified"]),
                },
            )
        )
    return records


@register_experiment(
    "fig13",
    figure="Figure 13",
    tags=("paper", "datasets", "kronecker"),
    collect=_collect,
    records=_records,
    render=render,
)
def _plan(cfg: ExperimentConfig) -> list:
    """One fractal-expansion unit per plotted dataset."""
    return [partial(_run_dataset, name, cfg) for name in FIG13_DATASETS]
