"""Node partitioning of :class:`~repro.graph.csr.CSRGraph` into K shards.

The scale-out designs place each shard's edge-list slice on its own
shard-local SSD; sampling a neighbor owned by another shard becomes a
remote read over the host interconnect.  The two quantities that govern
that traffic are exactly what this module accounts for:

* **cut edges** -- edges whose endpoints live on different shards (each
  sampled cut edge is a remote edge-list read);
* **replication** -- the distinct remote nodes a shard references (its
  "halo"; the feature rows it must fetch or mirror).

Three methods cover the usual trade-offs:

``edge-cut``
    contiguous node ranges balanced by *edge count*.  Exploits the
    locality of renumbered/generated graphs, so it minimizes cut edges
    while keeping per-shard edge-list slices (and therefore SSD
    capacity and bandwidth demand) even.
``degree-balanced``
    greedy longest-processing-time assignment by degree: nodes sorted
    by degree descending, each placed on the currently lightest shard.
    Near-perfect degree balance, no locality.
``hash``
    ``node_id % K``.  The throwaway baseline with maximal cut.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.graph.csr import CSRGraph

__all__ = ["PARTITION_METHODS", "GraphPartition", "partition_graph"]

PARTITION_METHODS = ("edge-cut", "degree-balanced", "hash")

#: fewest pair-table entries :func:`partition_graph` always allows; past
#: this a table may be no larger than the graph's edge count
_MIN_HALO_TABLE = 1 << 20


@dataclass
class GraphPartition:
    """An assignment of every node to exactly one of ``n_shards`` shards.

    ``owner[v]`` is the shard that stores node ``v``'s neighbor list and
    feature row.  All derived statistics are computed once at
    construction from the graph the partition was built on.  Like
    :class:`~repro.graph.csr.CSRGraph` it is immutable: its arrays are
    read-only, so one partition can be shared by every run on a graph.
    """

    n_shards: int
    method: str
    owner: np.ndarray                      # int32[num_nodes]
    shard_nodes: np.ndarray                # int64[n_shards] node counts
    shard_degrees: np.ndarray              # int64[n_shards] out-degree sums
    cut_edges: int
    total_edges: int
    #: per-shard count of distinct non-owned nodes its edges reference
    replication: np.ndarray                # int64[n_shards]

    def __post_init__(self) -> None:
        for arr in (self.owner, self.shard_nodes, self.shard_degrees,
                    self.replication):
            arr.setflags(write=False)

    @property
    def num_nodes(self) -> int:
        return int(self.owner.size)

    @property
    def cut_fraction(self) -> float:
        """Fraction of edges crossing a shard boundary."""
        return self.cut_edges / self.total_edges if self.total_edges else 0.0

    @property
    def replication_factor(self) -> float:
        """Mean copies of a node once every shard mirrors its halo."""
        if self.num_nodes == 0:
            return 1.0
        return 1.0 + float(self.replication.sum()) / self.num_nodes

    @property
    def degree_balance(self) -> float:
        """Max shard degree over the ideal per-shard degree (1.0 = even)."""
        total = int(self.shard_degrees.sum())
        if total == 0:
            return 1.0
        return float(self.shard_degrees.max()) * self.n_shards / total

    @property
    def node_balance(self) -> float:
        """Max shard node count over the ideal per-shard count."""
        if self.num_nodes == 0:
            return 1.0
        return (
            float(self.shard_nodes.max()) * self.n_shards / self.num_nodes
        )

    def shard_of(self, nodes: np.ndarray) -> np.ndarray:
        """Owning shard of each node in ``nodes``."""
        return self.owner[np.asarray(nodes, dtype=np.int64)]

    def nodes_of(self, shard: int) -> np.ndarray:
        """All nodes owned by ``shard``."""
        self._check_shard(shard)
        return np.nonzero(self.owner == shard)[0]

    def local_fraction(self, nodes: Sequence[int], shard: int) -> float:
        """Fraction of ``nodes`` owned by ``shard`` (1.0 when empty)."""
        self._check_shard(shard)
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.size == 0:
            return 1.0
        return float(np.mean(self.owner[nodes] == shard))

    def remote_mask(self, nodes: Sequence[int], shard: int) -> np.ndarray:
        """Boolean mask of ``nodes`` NOT owned by ``shard``."""
        self._check_shard(shard)
        nodes = np.asarray(nodes, dtype=np.int64)
        return self.owner[nodes] != shard

    def _check_shard(self, shard: int) -> None:
        if not 0 <= shard < self.n_shards:
            raise ConfigError(
                f"shard {shard} out of range [0, {self.n_shards})"
            )

    def stats(self) -> Dict[str, float]:
        """Summary scalars (the shard_scaling experiment's record row)."""
        return {
            "n_shards": float(self.n_shards),
            "cut_edges": float(self.cut_edges),
            "cut_fraction": self.cut_fraction,
            "replication_factor": self.replication_factor,
            "degree_balance": self.degree_balance,
            "node_balance": self.node_balance,
        }

    def __repr__(self) -> str:
        return (
            f"GraphPartition(method={self.method!r}, K={self.n_shards}, "
            f"cut={self.cut_fraction:.1%}, "
            f"balance={self.degree_balance:.2f})"
        )


def _edge_cut_owner(graph: CSRGraph, n_shards: int) -> np.ndarray:
    """Contiguous node ranges with ~equal edge counts per range.

    Every shard is non-empty whenever ``n_shards <= num_nodes``; with
    more shards than nodes the first ``num_nodes`` shards get one node
    each and the rest stay empty (a well-formed, zero-cut tail).
    """
    n = graph.num_nodes
    if n == 0:
        return np.empty(0, dtype=np.int32)
    if n_shards >= n:
        return np.arange(n, dtype=np.int32)
    targets = (
        np.arange(1, n_shards, dtype=np.float64)
        * graph.num_edges / n_shards
    )
    # Boundary node of each range: first node whose cumulative degree
    # reaches the shard's edge quota.
    bounds = np.searchsorted(graph.indptr, targets, side="left")
    # Keep every shard non-empty even on degenerate degree profiles:
    # force the boundaries strictly increasing within [1, n-1].
    low = np.arange(1, n_shards, dtype=np.int64)
    bounds = np.maximum.accumulate(np.maximum(bounds, low))
    high = n - n_shards + low
    for i in range(bounds.size - 1, -1, -1):
        cap = high[i] if i == bounds.size - 1 else bounds[i + 1] - 1
        bounds[i] = min(bounds[i], cap)
    return np.searchsorted(
        bounds, np.arange(n), side="right"
    ).astype(np.int32)


def _degree_balanced_owner(graph: CSRGraph, n_shards: int) -> np.ndarray:
    """Greedy LPT by degree: heaviest nodes first, lightest shard wins."""
    degrees = graph.degrees()
    order = np.argsort(degrees, kind="stable")[::-1]
    owner = np.empty(graph.num_nodes, dtype=np.int32)
    heap = [(0, k) for k in range(n_shards)]   # (load, shard)
    heapq.heapify(heap)
    # Ties broken by shard id so the assignment is deterministic.
    for node in order:
        load, shard = heapq.heappop(heap)
        owner[node] = shard
        heapq.heappush(heap, (load + int(degrees[node]) + 1, shard))
    return owner


def partition_graph(
    graph: CSRGraph,
    n_shards: int,
    method: str = "edge-cut",
    owner: Optional[np.ndarray] = None,
) -> GraphPartition:
    """Partition ``graph`` into ``n_shards`` shards.

    ``method`` is one of :data:`PARTITION_METHODS`; alternatively pass
    a precomputed ``owner`` array (recorded as method ``"custom"``) to
    bring an external partitioner's output into the same accounting.

    Degenerate shapes stay well-formed rather than erroring: more
    shards than nodes leaves the surplus shards empty, and single-node
    or edge-free graphs partition with zero cut edges.

    Cut edges and halos come from one pass over the edges: each edge
    becomes a (source's shard, destination node) pair, and a K x N
    table counts the edges per pair (an edge is cut when its pair's node
    is owned by another shard; a shard's halo is its pairs with such
    nodes).  Where the table would hold more entries than the graph
    has edges (and more than :data:`_MIN_HALO_TABLE`), the distinct cut
    pairs are found by ``np.unique`` instead.
    """
    if not isinstance(graph, CSRGraph):
        raise ConfigError(
            f"partition_graph needs a CSRGraph, got {type(graph).__name__}"
        )
    if n_shards < 1:
        raise ConfigError(f"n_shards must be >= 1, got {n_shards}")
    if owner is not None:
        # a copy: the partition freezes its owner, the caller's stays
        owner = np.array(owner, dtype=np.int32)
        if owner.shape != (graph.num_nodes,):
            raise ConfigError(
                f"owner must have one entry per node "
                f"({graph.num_nodes}), got shape {owner.shape}"
            )
        if owner.size and (owner.min() < 0 or owner.max() >= n_shards):
            raise ConfigError("owner entries out of range")
        method = "custom"
    elif method == "edge-cut":
        owner = (
            _edge_cut_owner(graph, n_shards)
            if n_shards > 1
            else np.zeros(graph.num_nodes, dtype=np.int32)
        )
    elif method == "degree-balanced":
        owner = _degree_balanced_owner(graph, n_shards)
    elif method == "hash":
        owner = (
            np.arange(graph.num_nodes, dtype=np.int64) % n_shards
        ).astype(np.int32)
    else:
        raise ConfigError(
            f"partition must be one of {PARTITION_METHODS}, got {method!r}"
        )

    n = graph.num_nodes
    degrees = graph.degrees()
    shard_nodes = np.bincount(owner, minlength=n_shards).astype(np.int64)
    shard_degrees = np.bincount(
        owner, weights=degrees, minlength=n_shards
    ).astype(np.int64)

    # Every edge as one (source's shard, destination node) pair index.
    pairs = np.repeat(owner.astype(np.int64) * n, degrees)
    pairs += graph.indices
    if n_shards * n <= max(graph.num_edges, _MIN_HALO_TABLE):
        # K x N table of edges per pair: a shard's own nodes hold its
        # uncut edges, and its halo is the other nodes it reaches.
        table = np.bincount(pairs, minlength=n_shards * n).reshape(
            n_shards, n
        )
        cut_edges = graph.num_edges - int(table[owner, np.arange(n)].sum())
        remote = owner != np.arange(n_shards)[:, None]
        replication = np.count_nonzero((table > 0) & remote, axis=1)
    else:
        # more shards than the graph has edges per node: a table would
        # outgrow the edge arrays, so count the distinct cut pairs
        cut = np.repeat(owner, degrees) != owner[graph.indices]
        cut_edges = int(np.count_nonzero(cut))
        replication = np.bincount(
            np.unique(pairs[cut]) // n, minlength=n_shards
        )

    return GraphPartition(
        n_shards=n_shards,
        method=method,
        owner=owner,
        shard_nodes=shard_nodes,
        shard_degrees=shard_degrees,
        cut_edges=cut_edges,
        total_edges=graph.num_edges,
        replication=replication.astype(np.int64),
    )
