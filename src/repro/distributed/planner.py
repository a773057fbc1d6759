"""Host-level partition and shuffle planning (DistDGL-style).

Decides, before any simulation starts, (a) which host owns each node's
edge-list slice and feature row, (b) how much data the one-time
partition *shuffle* moves between hosts (DistDGL's ``data_shuffle``:
nodes start laid out in contiguous id-order blocks and must migrate to
their owning partition), and (c) the per-workload cross-host traffic a
host generates while training -- remote neighbor-sampling RPCs to the
owners of sampled hop targets and feature-row pulls from the owners of
remote input nodes.

The partitioning is *hierarchical*: the graph is cut once into
``n_hosts * shards_per_host`` device shards and host ``h`` owns device
shards ``[h*K, (h+1)*K)``, so the host-level cut is exactly the
coarsening of the device-level cut.  With one host the host partition
is trivially all-local and every cross-host quantity is zero, which is
what lets ``mode="distributed"`` with ``n_hosts=1`` replay the
``sharded`` backend bit-for-bit.

Everything here is pure numpy bookkeeping -- no simulator state -- so
the analytic and event-driven faces of the distributed backend price
the *same* deterministic byte counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.graph.csr import CSRGraph
from repro.graph.partition import GraphPartition, partition_graph
from repro.net import FEATURE_PULL, SAMPLING_RPC

__all__ = [
    "HostPartitionPlan",
    "WorkloadTraffic",
    "host_workload_traffic",
    "model_gradient_bytes",
    "plan_hosts",
]


def model_gradient_bytes(gpu, n_layers: int, dtype_bytes: int) -> int:
    """Gradient payload of one synchronous update (all model weights).

    Every layer of :meth:`~repro.pipeline.gpu.GPUModel.layer_shapes`
    (the shapes the GPU timing prices) carries an ``(in, out)`` weight
    plus an ``out`` bias.
    """
    params = sum(
        w_in * w_out + w_out
        for w_in, w_out in gpu.layer_shapes(max(1, n_layers))
    )
    return params * dtype_bytes


@dataclass
class HostPartitionPlan:
    """Ownership + shuffle plan for ``n_hosts`` hosts of ``K`` shards.

    ``device_part`` is the fine partition the intra-host sharded groups
    use (``n_hosts * shards_per_host`` shards); ``host_part`` is its
    host-level coarsening (the per-host feature-shard ownership map --
    ``host_part.owner[v]`` is the host serving node ``v``'s remote
    reads).  ``shuffle_matrix[src, dst]`` is the bytes the one-time
    data shuffle moves from initial contiguous block ``src`` to owning
    host ``dst`` (diagonal = data already in place).  Immutable, like
    its partitions.
    """

    n_hosts: int
    shards_per_host: int
    method: str
    device_part: GraphPartition
    host_part: GraphPartition
    shuffle_matrix: np.ndarray            # int64[n_hosts, n_hosts]

    def __post_init__(self) -> None:
        self.shuffle_matrix.setflags(write=False)

    @property
    def n_groups(self) -> int:
        return self.n_hosts * self.shards_per_host

    def host_of_group(self, group: int) -> int:
        """Host that owns flattened device group ``group``."""
        if not 0 <= group < self.n_groups:
            raise ConfigError(
                f"group {group} out of range [0, {self.n_groups})"
            )
        return group // self.shards_per_host

    @property
    def halo_nodes(self) -> int:
        """Distinct (host, remote node) pairs the host cut references."""
        return int(self.host_part.replication.sum())

    @property
    def shuffle_bytes(self) -> int:
        """Cross-host bytes the one-time data shuffle moves."""
        off_diag = self.shuffle_matrix.sum() - np.trace(self.shuffle_matrix)
        return int(off_diag)

    def stats(self) -> Dict[str, float]:
        """Host-level summary scalars for ``backend_stats``."""
        return {
            "n_hosts": float(self.n_hosts),
            "host_cut_edges": float(self.host_part.cut_edges),
            "host_cut_fraction": self.host_part.cut_fraction,
            "host_halo_nodes": float(self.halo_nodes),
            "host_replication_factor": self.host_part.replication_factor,
            "shuffle_bytes": float(self.shuffle_bytes),
        }

    def __repr__(self) -> str:
        return (
            f"HostPartitionPlan(H={self.n_hosts}, "
            f"K={self.shards_per_host}, method={self.method!r}, "
            f"host_cut={self.host_part.cut_fraction:.1%}, "
            f"shuffle={self.shuffle_bytes} B)"
        )


def _initial_block_owner(num_nodes: int, n_hosts: int) -> np.ndarray:
    """Pre-shuffle layout: contiguous equal id-order blocks per host."""
    if num_nodes == 0:
        return np.empty(0, dtype=np.int64)
    ids = np.arange(num_nodes, dtype=np.int64)
    return np.minimum(ids * n_hosts // num_nodes, n_hosts - 1)


def plan_hosts(
    graph: CSRGraph,
    n_hosts: int,
    shards_per_host: int = 1,
    method: str = "edge-cut",
    row_bytes: int = 0,
    edge_id_bytes: int = 8,
) -> HostPartitionPlan:
    """Build the hierarchical host/device partition + shuffle plan.

    ``row_bytes``/``edge_id_bytes`` size each node's shuffle payload
    (feature row plus its edge-list slice).  Deterministic for fixed
    inputs: same graph, same counts, same plan.
    """
    if n_hosts < 1:
        raise ConfigError(f"n_hosts must be >= 1, got {n_hosts}")
    if shards_per_host < 1:
        raise ConfigError(
            f"shards_per_host must be >= 1, got {shards_per_host}"
        )
    device_part = partition_graph(
        graph, n_hosts * shards_per_host, method=method
    )
    if n_hosts == 1:
        host_owner = np.zeros(graph.num_nodes, dtype=np.int32)
    else:
        host_owner = (
            device_part.owner // shards_per_host
        ).astype(np.int32)
    host_part = partition_graph(graph, n_hosts, owner=host_owner)

    # DistDGL data_shuffle: node v starts in contiguous block
    # init[v] and must land on host_owner[v]; its payload is the
    # feature row plus the edge-list slice.
    init = _initial_block_owner(graph.num_nodes, n_hosts)
    payload = (
        graph.degrees().astype(np.int64) * edge_id_bytes + row_bytes
    )
    matrix = np.zeros((n_hosts, n_hosts), dtype=np.int64)
    if graph.num_nodes:
        flat = init * n_hosts + host_owner
        matrix = np.bincount(
            flat, weights=payload, minlength=n_hosts * n_hosts
        ).astype(np.int64).reshape(n_hosts, n_hosts)

    return HostPartitionPlan(
        n_hosts=n_hosts,
        shards_per_host=shards_per_host,
        method=method,
        device_part=device_part,
        host_part=host_part,
        shuffle_matrix=matrix,
    )


@dataclass(frozen=True)
class WorkloadTraffic:
    """Cross-host bytes one workload generates when run on one host.

    Per-destination request/response byte vectors (length ``n_hosts``,
    own-host entries zero).  ``sampling_*`` is the remote
    neighbor-sampling RPC pair (request: the remote hop-target ids;
    response: their neighbor lists); ``pull_*`` the feature pull pair
    (request: the remote input-node ids; response: their feature rows).
    """

    host: int
    sampling_req: np.ndarray              # int64[n_hosts]
    sampling_resp: np.ndarray
    pull_req: np.ndarray
    pull_resp: np.ndarray

    @property
    def total_bytes(self) -> int:
        return int(
            self.sampling_req.sum() + self.sampling_resp.sum()
            + self.pull_req.sum() + self.pull_resp.sum()
        )

    def destinations(self) -> Iterator[int]:
        """Hosts this workload exchanges any bytes with, ascending."""
        any_bytes = (
            self.sampling_req + self.sampling_resp
            + self.pull_req + self.pull_resp
        ) > 0
        for dst in np.nonzero(any_bytes)[0]:
            yield int(dst)

    def calls(self) -> Iterator[Tuple[str, str, int, int, int]]:
        """The RPC pairs that settle this traffic, in issue order.

        Yields ``(phase, traffic_class, dst, req_bytes, resp_bytes)``:
        per destination host (ascending), the sampling RPC then the
        feature pull, each only when it moves any bytes.
        """
        for dst in self.destinations():
            for phase, cls, req, resp in (
                ("remote_sampling", SAMPLING_RPC,
                 self.sampling_req, self.sampling_resp),
                ("feature_pull", FEATURE_PULL,
                 self.pull_req, self.pull_resp),
            ):
                if req[dst] or resp[dst]:
                    yield phase, cls, dst, int(req[dst]), int(resp[dst])


def host_workload_traffic(
    plan: HostPartitionPlan,
    graph: CSRGraph,
    workloads,
    host: int,
    row_bytes: int,
    edge_id_bytes: int,
) -> List[WorkloadTraffic]:
    """Per-workload cross-host traffic when ``host`` runs the batch.

    Vectorized over the workload's node arrays: hop targets owned
    elsewhere trigger one sampling RPC per owning host (request ids
    out, neighbor lists back); input nodes owned elsewhere trigger one
    feature pull per owning host (ids out, rows back).
    """
    h = plan.n_hosts
    owner = plan.host_part
    out: List[WorkloadTraffic] = []
    for w in workloads:
        targets = np.asarray(w.all_targets(), dtype=np.int64)
        towner = owner.shard_of(targets)
        tmask = towner != host
        samp_req = (
            np.bincount(towner[tmask], minlength=h).astype(np.int64)
            * edge_id_bytes
        )
        deg = graph.degrees(targets[tmask]).astype(np.float64)
        samp_resp = (
            np.bincount(towner[tmask], weights=deg, minlength=h)
            .astype(np.int64) * edge_id_bytes
        )
        inputs = np.asarray(w.input_nodes, dtype=np.int64)
        iowner = owner.shard_of(inputs)
        imask = iowner != host
        counts = np.bincount(iowner[imask], minlength=h).astype(np.int64)
        out.append(
            WorkloadTraffic(
                host=host,
                sampling_req=samp_req,
                sampling_resp=samp_resp,
                pull_req=counts * edge_id_bytes,
                pull_resp=counts * row_bytes,
            )
        )
    return out
