"""Multi-host distributed training over the simulated network fabric.

The *hosts* axis of the topology engine (:mod:`repro.pipeline.engine`):
:mod:`repro.distributed.planner` decides which host owns which nodes
(hierarchical host/device partitioning on :mod:`repro.graph.partition`,
halo accounting, and a DistDGL-style deterministic data-shuffle plan),
and :mod:`repro.distributed.coordinator` is the engine with the shards
and hosts axes exposed plus its closed-form face.  Hosts exchange
remote-sampling RPCs, feature pulls, and gradient all-reduce traffic
over :mod:`repro.net`.  The engine imports this package only when a
mode exposes the hosts axis.
"""

from repro.distributed.coordinator import (
    DistributedCoordinator,
    model_gradient_bytes,
)
from repro.distributed.planner import (
    HostPartitionPlan,
    WorkloadTraffic,
    host_workload_traffic,
    plan_hosts,
)

__all__ = [
    "DistributedCoordinator",
    "HostPartitionPlan",
    "WorkloadTraffic",
    "host_workload_traffic",
    "model_gradient_bytes",
    "plan_hosts",
]
