"""The suite behind ``repro run all``: its order and its two scales.

Usage::

    python -m repro run all              # default scale
    python -m repro run all --quick      # reduced scale
    python -m repro run all --jobs 4     # parallel units
    python -m repro run all --out DIR    # JSON/CSV artifacts
    python -m repro run all --json       # machine-readable
    python -m repro run all --only paper --skip e2e

``repro run all`` is one :class:`repro.api.campaign.Campaign` over
:data:`ORDER`, exactly as ``repro run <name>`` is one over a single
experiment: the suite shares one content-addressed dataset/workload
cache, units run on a ``--jobs``-wide thread pool, and a failing
experiment is reported (with its traceback) without stopping the rest.
``calibration`` reads the results of ``fig14``, ``fig16`` and ``fig18``
from the same campaign instead of simulating them again.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentConfig

__all__ = ["ORDER", "suite_config"]

#: run order (table first, then figures in paper order, calibration and
#: the extension experiments last)
ORDER = (
    "table1", "fig05", "fig06", "fig07", "fig13", "fig14", "fig15",
    "fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "calibration",
    "energy", "batch-sensitivity", "ablations", "fidelity",
    "cache-sensitivity", "depth-sensitivity", "shard-scaling",
    "gids-vs-isp",
)


def suite_config(quick: bool = False) -> ExperimentConfig:
    """The config ``repro run`` uses; ``quick`` is ``--quick``'s scale."""
    if quick:
        return ExperimentConfig(
            edge_budget=3e5, batch_size=48, n_workloads=6
        )
    return ExperimentConfig(n_workloads=8)
