"""The event-driven topology engine behind every Fig 4 pipeline mode.

The paper builds every design point on one producer/consumer pipeline
(Fig 4); design points differ in where preparation runs, and scale-out
modes only in how many copies of that pipeline run side by side.  This
module is that one pipeline, replicated over a topology of *device
groups*.  A mode exposes a fixed set of scale-out axes:

``shards``
    the graph is partitioned (:mod:`repro.graph.partition`) into
    ``n_shards`` groups, each with its own device stack and GPU
    consumer; group ``g`` handles batches ``g, g+G, ...`` and pulls the
    sampled neighbor lists and feature rows it does not own over its
    own PCIe ingress link, optionally through a front cache
    (:mod:`repro.cache`).  The cut fraction approaches ``1 - 1/K`` on
    locality-free graphs, which is what bends scaling below linear.
``hosts``
    ``n_hosts`` replicas of the sharded groups, cut hierarchically by
    :mod:`repro.distributed.planner`, exchange remote-sampling RPCs and
    feature pulls over the simulated network fabric (:mod:`repro.net`),
    stall for a gradient all-reduce after every step, and may fail per
    the fault plan's ``host_fail_rate``.
``prefetch``
    each group's producers split into samplers and feature workers
    behind a ``prefetch_depth`` window (:class:`ProducerPool`), the
    overlapped sampling/feature organisation of GIDS-style systems.

An axis a mode does not expose is pinned to 1 (or, for prefetch, to
single-stage producers): it contributes no stats, no partition
planning, no fault draws, and no imports.  The registered presets are
``event`` (no axes), ``sharded`` (shards), ``distributed`` (shards,
hosts) and ``async`` (prefetch); ``gids``
(:mod:`repro.pipeline.backends.gids`) is the no-axes engine with a GPU
model whose features are already resident in HBM, and
``distributed-analytic`` prices the ``distributed`` preset's plan in
closed form (:meth:`TopologyEngine.analytic`).  Every group count of 1
therefore replays the same event schedule.

A graph's cut depends only on the graph and the cut parameters, never
on the workloads, so it is planned once per process: the first run on
a graph partitions it and every later run with the same axes, counts,
method and payload sizes reuses that (immutable) cut.  The memo holds
its graphs weakly, so a cut is freed with its graph.  What each
workload pulls across that cut -- per group and, with several hosts,
per host -- is likewise planned once per workload and cut
(:func:`~repro.core.accounting.workload_plan`); the front-cache replay
stays per run.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Tuple

from repro.core.accounting import read_only, workload_plan
from repro.errors import ConfigError
from repro.graph.partition import partition_graph
from repro.pipeline.backends.base import (
    ExecutionRequest,
    PipelineResult,
    drive,
)
from repro.pipeline.backends.registry import register_backend
from repro.pipeline.consumer import GPUConsumer
from repro.pipeline.producer import ProducerPool
from repro.pipeline.timeline import PhaseAccumulator
from repro.pipeline.workqueue import WorkQueue
from repro.sim.engine import Simulator
from repro.sim.resources import BandwidthLink

__all__ = [
    "HOSTS",
    "PREFETCH",
    "PRESETS",
    "SHARDS",
    "TopologyEngine",
    "TopologyPlan",
]

SHARDS = "shards"
HOSTS = "hosts"
PREFETCH = "prefetch"

#: registered event-driven mode -> the axes it exposes
PRESETS: Dict[str, Tuple[str, ...]] = {
    "event": (),
    "sharded": (SHARDS,),
    "distributed": (SHARDS, HOSTS),
    "async": (PREFETCH,),
}


#: graph -> {cut key: (device partition, host plan or None)}
_CUTS = weakref.WeakKeyDictionary()
_CUTS_LOCK = threading.Lock()


def _graph_cut(graph, hosts: bool, n_hosts: int, n_shards: int,
               method: str, row_bytes: int, edge_id_bytes: int):
    """``(device_part, host_plan)`` of ``graph``, built on first use.

    ``hosts`` says whether the hosts axis is exposed; only then is the
    cut hierarchical (:func:`~repro.distributed.planner.plan_hosts`)
    and ``host_plan`` set.  The lock is held while a cut is built, so
    concurrent runs on one graph build it once.  Neither value refers
    to the graph, which keeps the weak key collectable.
    """
    key = (hosts, n_hosts, n_shards, method, row_bytes, edge_id_bytes)
    with _CUTS_LOCK:
        cuts = _CUTS.setdefault(graph, {})
        if key not in cuts:
            if hosts:
                from repro.distributed import planner

                host_plan = planner.plan_hosts(
                    graph, n_hosts,
                    shards_per_host=n_shards,
                    method=method,
                    row_bytes=row_bytes,
                    edge_id_bytes=edge_id_bytes,
                )
                cuts[key] = (host_plan.device_part, host_plan)
            else:
                cuts[key] = (
                    partition_graph(graph, n_shards, method=method), None
                )
        return cuts[key]


def _remote_parts(graph, cut: tuple, part, workloads, group: int):
    """Cross-group traffic each workload pulls when run on ``group``.

    Two remote-read streams: the neighbor lists of sampled hop targets
    owned elsewhere (edge-list reads from the owning group's SSD) and
    the feature rows of input nodes owned elsewhere.  Returns
    ``(total_bytes, remote_input_nodes)`` per workload; the node array
    (read-only) is what a front cache can absorb -- edge-list reads
    always cross the link.  ``cut`` is ``part``'s :func:`_graph_cut`
    key; each workload's share is planned once per process.
    """
    row_bytes, edge_id_bytes = cut[-2:]

    def build(w):
        targets = w.all_targets()
        remote_t = targets[part.remote_mask(targets, group)]
        edge_bytes = int(graph.degrees(remote_t).sum()) * edge_id_bytes
        remote_nodes = w.input_nodes[part.remote_mask(w.input_nodes, group)]
        return (
            edge_bytes + int(remote_nodes.size) * row_bytes,
            read_only(remote_nodes),
        )

    return [
        workload_plan(graph, w, ("remote", cut, group), partial(build, w))
        for w in workloads
    ]


def _host_traffic(graph, cut: tuple, host_plan, workloads, host: int):
    """Each workload's cross-host traffic when ``host`` runs it
    (:func:`~repro.distributed.planner.host_workload_traffic`), planned
    once per workload and cut."""
    from repro.distributed import planner

    row_bytes, edge_id_bytes = cut[-2:]

    def build(w):
        (traffic,) = planner.host_workload_traffic(
            host_plan, graph, [w], host, row_bytes, edge_id_bytes
        )
        for array in (traffic.sampling_req, traffic.sampling_resp,
                      traffic.pull_req, traffic.pull_resp):
            read_only(array)
        return traffic

    return [
        workload_plan(graph, w, ("host", cut, host), partial(build, w))
        for w in workloads
    ]


@dataclass
class TopologyPlan:
    """Deterministic planning shared by the event and analytic faces."""

    group_ids: List[int]
    systems: List
    hw: object
    #: cross-group bytes per group per workload (all zero for one group)
    per_group_remote: List[List[int]]
    #: device-level partition (``None`` for a single group)
    part: Optional[object] = None
    #: hierarchical host plan (hosts axis with more than one group)
    host_plan: Optional[object] = None
    #: front-cache replay per group (``cache_tiers`` specs only)
    cache_plans: Dict[int, object] = field(default_factory=dict)
    #: ``[host][workload]`` cross-host traffic (more than one host only)
    host_traffic: List[List] = field(default_factory=list)
    fabric: Optional[object] = None
    grad_bytes: int = 0

    def remote_bytes(self, group: int, idx: int) -> int:
        """Bytes batch ``idx`` pulls over ``group``'s ingress link,
        net of what the front cache serves."""
        per_workload = self.per_group_remote[group]
        nbytes = per_workload[idx % len(per_workload)]
        cplan = self.cache_plans.get(group)
        if cplan is not None:
            nbytes -= cplan.hit_bytes.get(idx, 0)
        return nbytes


class TopologyEngine:
    """Builds and runs one event-driven training simulation.

    Device groups are flattened as ``group = host * n_shards + shard``
    with global round-robin batch assignment
    (``range(group, n_batches, n_groups)``).
    """

    def __init__(self, request: ExecutionRequest,
                 axes: Tuple[str, ...] = ()):
        self.request = request
        spec = request.spec
        self.axes = frozenset(axes)
        self.n_shards = spec.system.n_shards if SHARDS in self.axes else 1
        self.n_hosts = spec.system.n_hosts if HOSTS in self.axes else 1
        self.n_groups = self.n_hosts * self.n_shards
        self.prefetch_depth = (
            spec.prefetch_depth if PREFETCH in self.axes else 0
        )
        if self.n_groups > 1 and request.graph is None:
            raise ConfigError(
                f"{spec.mode} mode with {self.n_groups} device groups needs "
                "the dataset graph; run through Session (which supplies "
                "it) or pass graph="
            )

    def group_batches(self, group: int) -> List[int]:
        return list(range(group, self.request.spec.n_batches, self.n_groups))

    # -- shared deterministic planning -------------------------------------

    def plan(self) -> TopologyPlan:
        """Systems, partition, cache replay and host traffic."""
        req = self.request
        system_spec = req.spec.system
        workloads = req.workloads
        group_ids = list(range(min(self.n_groups, req.spec.n_batches)))
        # One group runs on the request's own (already warmed) system;
        # several groups are independently built replicas.
        if self.n_groups == 1:
            systems = [req.base_system()]
        else:
            systems = [req.fresh_system() for _ in group_ids]
        hw = systems[0].hw
        plan = TopologyPlan(
            group_ids, systems, hw,
            per_group_remote=[[0] * len(workloads)],
        )
        if self.n_groups == 1:
            return plan

        row_bytes = req.gpu.feature_dim * req.gpu.feature_dtype_bytes
        edge_id_bytes = hw.workload.edge_id_bytes
        cut = (HOSTS in self.axes, self.n_hosts, self.n_shards,
               system_spec.partition, row_bytes, edge_id_bytes)
        plan.part, plan.host_plan = _graph_cut(req.graph, *cut)
        parts = [
            _remote_parts(req.graph, cut, plan.part, workloads, g)
            for g in range(self.n_groups)
        ]
        plan.per_group_remote = [[total for total, _ in p] for p in parts]

        if system_spec.cache_tiers is not None:
            # Front cache over each group's cross-group feature rows:
            # replayed here, in batch-id order, so both faces and every
            # --jobs level see identical per-batch hit bytes.
            from repro.cache import degree_priority_nodes, plan_remote_cache

            priority_nodes = None
            if system_spec.cache_policy == "static":
                priority_nodes = degree_priority_nodes(req.graph)
            for g in group_ids:
                plan.cache_plans[g] = plan_remote_cache(
                    hw,
                    self.group_batches(g),
                    [nodes for _, nodes in parts[g]],
                    row_bytes,
                    tiers=system_spec.cache_tiers,
                    policy=system_spec.cache_policy,
                    priority_nodes=priority_nodes,
                )

        if self.n_hosts > 1:
            from repro.distributed import model_gradient_bytes
            from repro.net import NetworkFabric

            plan.fabric = NetworkFabric(
                hw.fabric, self.n_hosts, topology=system_spec.fabric
            )
            plan.host_traffic = [
                _host_traffic(req.graph, cut, plan.host_plan, workloads, h)
                for h in range(self.n_hosts)
            ]
            n_layers = max(len(w.block_sizes) for w in workloads)
            plan.grad_bytes = model_gradient_bytes(
                req.gpu, n_layers, hw.fabric.grad_dtype_bytes
            )
        return plan

    def topology_stats(self, plan: TopologyPlan) -> Dict[str, float]:
        """The exposed axes' planning scalars for ``backend_stats``,
        shared by both faces: group/host counts, partition and host-cut
        stats, cross-group bytes and front-cache hits."""
        stats: Dict[str, float] = {}
        if SHARDS in self.axes:
            stats["n_groups"] = float(len(plan.group_ids))
            stats["remote_bytes"] = float(sum(
                plan.remote_bytes(g, idx)
                for g in plan.group_ids
                for idx in self.group_batches(g)
            ))
        if HOSTS in self.axes:
            stats["n_hosts"] = float(self.n_hosts)
        if plan.part is not None:
            stats.update(plan.part.stats())
        if plan.host_plan is not None:
            stats.update(plan.host_plan.stats())
        if plan.fabric is not None:
            stats["grad_bytes"] = float(plan.grad_bytes)
        if plan.cache_plans:
            from repro.cache import merge_tier_stats

            stats.update(merge_tier_stats(
                [plan.cache_plans[g] for g in plan.group_ids]
            ))
        return stats

    # -- hosts axis: failures ----------------------------------------------

    def _failed_hosts(self, inj) -> set:
        """Hosts that fail this epoch, drawn up front one per host in
        host order, so the set is a pure function of the plan seed
        (independent of event interleaving).  Only the hosts axis has
        hosts that can fail."""
        failed = set()
        if (
            HOSTS in self.axes
            and inj is not None
            and inj.plan.host_fail_rate > 0.0
        ):
            for h in range(self.n_hosts):
                if inj.happens(f"host{h}.fail", inj.plan.host_fail_rate):
                    failed.add(h)
                    inj.charge("host_failures", 1)
        return failed

    def _recovery(self, inj, host: int, system,
                  batch_ids: List[int]) -> Tuple[int, float]:
        """When a failed host dies (uniform over its group's batch
        schedule) and what resuming costs: the checkpoint restore plus
        re-warming the in-flight batch the group lost."""
        at = int(inj.rng(f"host{host}.fail_at").integers(0, len(batch_ids)))
        w = self.request.workloads[batch_ids[at] % len(self.request.workloads)]
        rewarm_s = (
            system.sampling_engine.batch_cost(w).total_s
            + system.feature_engine.batch_cost(w).total_s
        )
        recovery_s = inj.plan.host_recovery_s + rewarm_s
        inj.charge("host_recovery_s", recovery_s)
        return at, recovery_s

    # -- event-driven face -------------------------------------------------

    def run(self) -> PipelineResult:
        req = self.request
        spec = req.spec
        workloads = req.workloads
        plan = self.plan()

        sim = Simulator()
        inj = req.injector()
        state = rpc = charge_allreduce = None
        allreduce_s = 0.0
        if plan.fabric is not None:
            from repro.net import (
                ALLREDUCE,
                RpcChannel,
                allreduce_host_share_bytes,
                allreduce_time,
            )

            state = plan.fabric.attach(sim, faults=inj)
            rpc = RpcChannel(plan.fabric, state)
            allreduce_s = allreduce_time(plan.fabric, plan.grad_bytes)
            share = int(
                allreduce_host_share_bytes(self.n_hosts, plan.grad_bytes)
            )
            if share:
                charge_allreduce = partial(
                    state.account.add, ALLREDUCE, share
                )
        failed_hosts = self._failed_hosts(inj)

        phases = PhaseAccumulator()
        consumers: List[GPUConsumer] = []
        procs = []
        for g, system in zip(plan.group_ids, plan.systems):
            host = g // self.n_shards
            batch_ids = self.group_batches(g)
            runtime = system.attach(sim, faults=inj)
            recovery_at, recovery_s = None, 0.0
            if host in failed_hosts and batch_ids:
                recovery_at, recovery_s = self._recovery(
                    inj, host, system, batch_ids
                )
            link = None
            if plan.part is not None:
                # Group-local PCIe ingress port (gen3 x16 class, one
                # extra switch hop); remote pulls of co-located
                # producers serialize here while other groups' links
                # run in parallel.
                pcie = plan.hw.pcie
                link = BandwidthLink(
                    sim,
                    pcie.gpu_link_bandwidth,
                    pcie.host_link_latency_s + pcie.p2p_switch_latency_s,
                    name=f"shard{g}.ingress",
                )
            cplan = plan.cache_plans.get(g)
            traffic = {}
            if plan.host_traffic:
                traffic = {
                    idx: plan.host_traffic[host][idx % len(workloads)]
                    for idx in batch_ids
                }
            queue = WorkQueue(sim, depth=spec.queue_depth)
            pool = ProducerPool(
                system, runtime, workloads, queue, batch_ids, phases,
                remote_bytes={
                    idx: plan.remote_bytes(g, idx) for idx in batch_ids
                },
                link=link,
                remote_cost=cplan.hit_cost_s if cplan is not None else None,
                host=host, traffic=traffic, rpc=rpc,
                prefetch_depth=self.prefetch_depth,
            )
            consumer = GPUConsumer(
                req.gpu, queue, len(batch_ids), phases,
                ssd=system.ssd if spec.checkpoint_every else None,
                checkpoint_every=spec.checkpoint_every,
                checkpoint_bytes=spec.checkpoint_bytes,
                allreduce_s=allreduce_s,
                # one consumer per host charges the ring share
                on_allreduce=(
                    charge_allreduce if g % self.n_shards == 0 else None
                ),
                recovery_at=recovery_at,
                recovery_s=recovery_s,
            )
            procs.extend(pool.spawn_all(spec.n_workers))
            procs.append(sim.process(consumer.run(sim), name=f"gpu-{g}"))
            consumers.append(consumer)

        elapsed = drive(sim, procs, what=f"{spec.mode} pipeline")
        busy = sum(c.utilization.busy_time(elapsed) for c in consumers)
        stats = self.topology_stats(plan)
        if HOSTS in self.axes:
            from repro.net import TrafficAccount

            account = state.account if state is not None else TrafficAccount()
            stats.update(account.stats())
            if rpc is not None:
                stats["net_rpc_calls"] = float(rpc.calls)
        if self.prefetch_depth:
            stats["prefetch_depth"] = float(self.prefetch_depth)
        if inj is not None:
            stats.update(inj.stats())
        return PipelineResult(
            design=plan.systems[0].design,
            mode=spec.mode,
            n_batches=spec.n_batches,
            n_workers=spec.n_workers,
            elapsed_s=elapsed,
            gpu_busy_s=busy,
            gpu_idle_fraction=max(
                0.0, 1.0 - busy / (len(consumers) * elapsed)
            ),
            phase_means={
                phase: stat.mean for phase, stat in phases.stats.items()
            },
            n_shards=self.n_shards,
            backend_stats=stats,
        )


    # -- closed-form face --------------------------------------------------

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
        from repro.net import (
            ALLREDUCE,
            RpcChannel,
            TrafficAccount,
            allreduce_host_share_bytes,
            allreduce_time,
        )

        req = self.request
        spec = req.spec
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
            interval = max(consume, produce / spec.n_workers)
            group_elapsed = produce + consume + (n - 1) * interval
            elapsed = max(elapsed, group_elapsed)
            busy += n * (consume - allreduce_s)

        stats = self.topology_stats(plan)
        stats.update(account.stats())
        n_groups_live = len(plan.group_ids)
        return PipelineResult(
            design=plan.systems[0].design,
            mode=spec.mode,
            n_batches=spec.n_batches,
            n_workers=spec.n_workers,
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


def _register_preset(mode: str, description: str) -> None:
    axes = PRESETS[mode]

    def plan(request: ExecutionRequest) -> PipelineResult:
        return TopologyEngine(request, axes).run()

    register_backend(
        mode, description=description,
        needs_graph=SHARDS in axes or HOSTS in axes,
    )(plan)


_register_preset("event", "discrete-event producer/consumer pipeline (Fig 4)")
_register_preset(
    "sharded", "K shard-local device groups with remote cross-shard reads"
)
_register_preset(
    "distributed",
    "N host replicas of sharded groups over a network fabric",
)
_register_preset(
    "async", "overlapped sampling/feature stages with bounded prefetch"
)
