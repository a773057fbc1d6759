"""The distributed coordinator: the hosts-axis engine and its
closed-form face.

``mode="distributed"`` is the topology engine
(:class:`~repro.pipeline.engine.TopologyEngine`) with both scale-out
axes exposed: ``n_hosts`` host replicas of ``n_shards`` device groups
each, with three traffic classes on the simulated fabric
(:mod:`repro.net`):

* **sampling RPCs** -- producers whose sampled hop targets are owned by
  another host issue one request/response pair per owning host (ids
  out, neighbor lists back), DistDGL's remote-sampling shape;
* **feature pulls** -- remote input nodes are fetched from their owning
  host's feature shard the same way;
* **gradient all-reduce** -- after every training step each consumer
  stalls for the collective's critical path
  (:mod:`repro.net.collectives`) and the per-host ring share is
  accounted once per host per step.

:class:`DistributedCoordinator` is that engine plus
:meth:`~DistributedCoordinator.analytic`, the ``distributed-analytic``
face, which prices the same :class:`~repro.pipeline.engine.TopologyPlan`
in closed form.  With ``n_hosts == 1`` every cross-host byte count is
zero and no fabric is attached, so the event face replays the
``sharded`` preset bit-for-bit.
"""

from __future__ import annotations

from typing import Dict

from repro.net import (
    ALLREDUCE,
    RpcChannel,
    TrafficAccount,
    allreduce_host_share_bytes,
    allreduce_time,
)
from repro.pipeline.backends.base import ExecutionRequest, PipelineResult
from repro.pipeline.engine import HOSTS, SHARDS, TopologyEngine

__all__ = ["DistributedCoordinator", "model_gradient_bytes"]


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


class DistributedCoordinator(TopologyEngine):
    """The engine with the shards and hosts axes exposed; ``run()`` is
    the event-driven face, :meth:`analytic` the closed-form one."""

    def __init__(self, request: ExecutionRequest,
                 mode: str = "distributed"):
        super().__init__(request, mode, axes=(SHARDS, HOSTS))

    # -- analytic face -----------------------------------------------------

    def analytic(self) -> PipelineResult:
        """Closed-form steady state per group, identical byte totals.

        Each group runs the single-device steady-state model
        (produce/consume rates, one pipeline fill) with its per-batch
        remote PCIe pull, cross-host RPC round trips, and the
        all-reduce stall folded in; the slowest group sets the elapsed
        time.  Network bytes are accumulated through the *same*
        :class:`~repro.net.fabric.TrafficAccount` integer arithmetic as
        the event face, so the two faces agree on every byte counter.
        """
        req = self.request
        gpu = req.gpu
        workloads = req.workloads
        plan = self.plan()
        fabric = plan.fabric
        cache_plans = plan.cache_plans

        rpc = RpcChannel(fabric) if fabric is not None else None
        allreduce_s = (
            allreduce_time(fabric, plan.grad_bytes)
            if fabric is not None else 0.0
        )
        share = int(
            allreduce_host_share_bytes(self.n_hosts, plan.grad_bytes)
        )
        pcie = plan.hw.pcie
        ingress_lat = pcie.host_link_latency_s + pcie.p2p_switch_latency_s

        account = TrafficAccount()
        elapsed = 0.0
        busy = 0.0
        phase_sums: Dict[str, float] = {}
        phase_counts: Dict[str, int] = {}

        def add_phase(name: str, value: float) -> None:
            phase_sums[name] = phase_sums.get(name, 0.0) + value
            phase_counts[name] = phase_counts.get(name, 0) + 1

        for g, system in zip(plan.group_ids, plan.systems):
            host = g // self.n_shards
            batch_ids = self.group_batches(g)
            produce = consume = 0.0
            for idx in batch_ids:
                w = workloads[idx % len(workloads)]
                samp = system.sampling_engine.batch_cost(w).total_s
                feat = system.feature_engine.batch_cost(w).total_s
                add_phase("neighbor_sampling", samp)
                add_phase("feature_lookup", feat)
                prep = samp + feat
                cplan = cache_plans.get(g)
                if cplan is not None:
                    cache_s = cplan.hit_cost_s.get(idx, 0.0)
                    if cache_s > 0.0:
                        add_phase("remote_cache", cache_s)
                        prep += cache_s
                nbytes = plan.remote_bytes(g, idx)
                if nbytes and plan.part is not None:
                    fetch = ingress_lat + nbytes / pcie.gpu_link_bandwidth
                    add_phase("remote_fetch", fetch)
                    prep += fetch
                if plan.host_traffic and rpc is not None:
                    tr = plan.host_traffic[host][idx % len(workloads)]
                    for phase, cls, dst, req_b, resp_b in tr.calls():
                        t = rpc.rpc_time(host, dst, req_b, resp_b)
                        add_phase(phase, t)
                        prep += t
                        account.add(cls, req_b)
                        account.add(cls, resp_b)
                trans = gpu.transfer_time(w)
                train = gpu.train_time(w)
                add_phase("cpu_to_gpu", trans)
                add_phase("gnn_training", train)
                cons = trans + train + allreduce_s
                if allreduce_s > 0.0:
                    add_phase("grad_allreduce", allreduce_s)
                    if g % self.n_shards == 0 and share:
                        account.add(ALLREDUCE, share)
                produce += prep
                consume += cons
            n = len(batch_ids)
            produce /= n
            consume /= n
            interval = max(consume, produce / req.n_workers)
            group_elapsed = produce + consume + (n - 1) * interval
            elapsed = max(elapsed, group_elapsed)
            busy += n * (consume - allreduce_s)

        stats = self.topology_stats(plan)
        stats.update(account.stats())
        n_groups_live = len(plan.group_ids)
        return PipelineResult(
            design=plan.systems[0].design,
            mode=self.mode,
            n_batches=req.n_batches,
            n_workers=req.n_workers,
            elapsed_s=elapsed,
            gpu_busy_s=busy,
            gpu_idle_fraction=max(
                0.0, 1.0 - busy / (n_groups_live * elapsed)
            ),
            phase_means={
                name: phase_sums[name] / phase_counts[name]
                for name in phase_sums
            },
            n_shards=self.n_shards,
            backend_stats=stats,
        )
