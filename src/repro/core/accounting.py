"""Cost accounting shared by every design point's engines.

A :class:`SamplingWorkload` is read-only once sampled, and a warm
session (or a campaign sharing one workload pool) replays the same
workload objects on every run.  Sampling and feature engines alike take
the whole workload (``batch_cost(workload)``, ``batch_process(runtime,
workload)``), so whatever an engine derives from a workload and a graph
alone -- the ISP command's flash-page set, the GIDS hop reads, the GIDS
feature pages, the cross-group and cross-host traffic of a graph cut --
is planned once per process by :func:`workload_plan` and reused; each
run keeps only its stateful passes (cache and page-buffer replays,
device accounting).
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Tuple, TypeVar

import numpy as np

from repro.gnn.subgraph import MiniBatch

__all__ = ["SamplingWorkload", "BatchCost", "read_only", "workload_plan"]

T = TypeVar("T")


@dataclass(eq=False)
class SamplingWorkload:
    """Everything an engine needs to cost one mini-batch's sampling.

    Extracted once from a sampled :class:`MiniBatch` so engines never need
    the graph itself -- only node IDs and sizes.  Compared and hashed by
    identity, which is what :func:`workload_plan` keys on.
    """

    seeds: np.ndarray
    hop_targets: List[np.ndarray]
    total_samples: int
    subgraph_bytes: int
    input_nodes: np.ndarray
    #: (num_dst, num_src, num_edges) per forward block, for the GPU model
    block_sizes: List[Tuple[int, int, int]]

    @classmethod
    def from_minibatch(
        cls, batch: MiniBatch, id_bytes: int = 8
    ) -> "SamplingWorkload":
        return cls(
            seeds=batch.seeds,
            hop_targets=list(batch.hop_targets),
            total_samples=batch.total_samples,
            subgraph_bytes=batch.subgraph_bytes(id_bytes),
            input_nodes=batch.input_nodes,
            block_sizes=[
                (b.num_dst, b.num_src, b.num_edges) for b in batch.blocks
            ],
        )

    @property
    def num_seeds(self) -> int:
        return int(self.seeds.size)

    @property
    def total_targets(self) -> int:
        return int(sum(t.size for t in self.hop_targets))

    @property
    def num_input_nodes(self) -> int:
        return int(self.input_nodes.size)

    def all_targets(self) -> np.ndarray:
        return np.concatenate(self.hop_targets)

    def scaled(self, fraction: float) -> dict:
        """Approximate per-command share for coalescing granularity < batch."""
        return {
            "targets": max(1, int(round(self.total_targets * fraction))),
            "samples": max(0, int(round(self.total_samples * fraction))),
            "bytes": max(0, int(round(self.subgraph_bytes * fraction))),
        }


#: graph -> workload -> {plan key: plan}, both levels weakly keyed
_PLANS = weakref.WeakKeyDictionary()
_PLANS_LOCK = threading.Lock()


def workload_plan(graph, workload: SamplingWorkload, key: Hashable,
                  build: Callable[[], T]) -> T:
    """The plan ``build()`` derives from ``workload`` on ``graph``,
    built on first use.

    ``key`` names the plan and every parameter it depends on besides
    the graph and the workload (layout sizes, cut parameters, span).
    The lock is held while a plan is built, so concurrent runs sharing
    a workload build it once (and ``build`` must not call
    :func:`workload_plan` itself).  Plans must be immutable -- read-only
    arrays, tuples, frozen records -- and must not refer to the graph
    or the workload, which keeps both weak keys collectable: an entry
    is freed with either.
    """
    with _PLANS_LOCK:
        per_graph = _PLANS.get(graph)
        if per_graph is None:
            per_graph = _PLANS[graph] = weakref.WeakKeyDictionary()
        plans = per_graph.get(workload)
        if plans is None:
            plans = per_graph[workload] = {}
        if key not in plans:
            plans[key] = build()
        return plans[key]


def read_only(array: np.ndarray) -> np.ndarray:
    """``array``, flagged read-only (for values :func:`workload_plan`
    shares between runs)."""
    array.flags.writeable = False
    return array


@dataclass
class BatchCost:
    """Time/bytes breakdown for one mini-batch on one engine.

    ``components`` holds named sub-phases (e.g. ``flash``, ``sw_fault``,
    ``isp_compute``) that experiments aggregate into the paper's stacked
    bars; their sum equals ``total_s`` up to overlap (overlapped phases
    record the *critical-path* share).
    """

    total_s: float = 0.0
    components: Dict[str, float] = field(default_factory=dict)
    bytes_from_ssd: int = 0
    requests: int = 0
    design: Optional[str] = None

    def add(self, component: str, seconds: float, overlap: bool = False) -> None:
        """Record a component; unless ``overlap``, it extends total_s."""
        if seconds < 0:
            raise ValueError(f"negative time for {component}")
        self.components[component] = (
            self.components.get(component, 0.0) + seconds
        )
        if not overlap:
            self.total_s += seconds

    def merge(self, other: "BatchCost") -> "BatchCost":
        self.total_s += other.total_s
        for key, val in other.components.items():
            self.components[key] = self.components.get(key, 0.0) + val
        self.bytes_from_ssd += other.bytes_from_ssd
        self.requests += other.requests
        return self

    def component(self, name: str) -> float:
        return self.components.get(name, 0.0)

    def __repr__(self) -> str:
        comps = ", ".join(
            f"{k}={v * 1e3:.3f}ms" for k, v in self.components.items()
        )
        return (
            f"BatchCost({self.design}, total={self.total_s * 1e3:.3f}ms, "
            f"{comps})"
        )
