"""Multi-host distributed training over the simulated network fabric.

The *hosts* axis of the topology engine (:mod:`repro.pipeline.engine`):
:mod:`repro.distributed.planner` decides which host owns which nodes
(hierarchical host/device partitioning on :mod:`repro.graph.partition`,
halo accounting, a DistDGL-style deterministic data-shuffle plan, and
the gradient payload of one update).  Hosts exchange remote-sampling
RPCs, feature pulls, and gradient all-reduce traffic over
:mod:`repro.net`.  The engine imports this package only when a mode
exposes the hosts axis.
"""

from repro.distributed.planner import (
    HostPartitionPlan,
    WorkloadTraffic,
    host_workload_traffic,
    model_gradient_bytes,
    plan_hosts,
)

__all__ = [
    "HostPartitionPlan",
    "WorkloadTraffic",
    "host_workload_traffic",
    "model_gradient_bytes",
    "plan_hosts",
]
