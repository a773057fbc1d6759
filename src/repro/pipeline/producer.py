"""CPU-side producer workers (Fig 4's data-preparation processes)."""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.pipeline.timeline import PhaseAccumulator
from repro.pipeline.workqueue import WorkItem, WorkQueue

__all__ = ["ProducerPool"]


class ProducerPool:
    """``n_workers`` concurrent producers sharing one list of batch ids.

    Each worker loops: claim the next batch id, run neighbor sampling
    through the system's sampling engine, run feature lookup through the
    feature engine, settle the batch's remote data, then push the
    prepared batch into the GPU work queue (blocking when the queue is
    full).

    Remote data only exists on a multi-group topology
    (:mod:`repro.pipeline.engine`): ``remote_cost`` seconds of front
    cache service, ``remote_bytes`` pulled over the group's ingress
    ``link``, and the cross-host ``traffic`` settled as RPCs on
    ``rpc``.  A batch with none of these adds no events, so a
    single-group pool replays the plain producer schedule exactly.
    """

    def __init__(
        self,
        system,
        runtime,
        workloads: Sequence,
        queue: WorkQueue,
        batch_ids: Sequence[int],
        phases: PhaseAccumulator,
        remote_bytes: Optional[Dict[int, int]] = None,
        link=None,
        remote_cost: Optional[Dict[int, float]] = None,
        host: int = 0,
        traffic: Optional[Dict[int, object]] = None,
        rpc=None,
    ):
        self.system = system
        self.runtime = runtime
        self.workloads = workloads
        self.queue = queue
        self.batch_ids = batch_ids
        self.phases = phases
        self.remote_bytes = remote_bytes or {}
        self.link = link
        self.remote_cost = remote_cost or {}
        self.host = host
        self.traffic = traffic or {}
        self.rpc = rpc
        self._next = 0

    def _settle_remote(self, idx: int, name: str):
        """Generator: the batch's cache service, remote pull and
        cross-host RPCs, in that order (no events when all-local)."""
        sim = self.runtime.sim
        cost_s = self.remote_cost.get(idx, 0.0)
        if cost_s > 0.0:
            t0 = sim.now
            yield sim.timeout(cost_s)
            self.phases.record(
                "remote_cache", sim.now - t0, worker=name, start_s=t0
            )
        nbytes = self.remote_bytes.get(idx, 0)
        if nbytes and self.link is not None:
            t0 = sim.now
            yield from self.link.transfer(nbytes)
            self.phases.record(
                "remote_fetch", sim.now - t0, worker=name, start_s=t0
            )
        tr = self.traffic.get(idx)
        if tr is None or self.rpc is None:
            return
        for phase, cls, dst, req, resp in tr.calls():
            t0 = sim.now
            yield from self.rpc.call(self.host, dst, req, resp, cls)
            self.phases.record(
                phase, sim.now - t0, worker=name, start_s=t0
            )

    def worker(self, worker_id: int):
        """Generator: one producer process."""
        sim = self.runtime.sim
        name = f"producer-{worker_id}"
        while True:
            pos = self._next
            if pos >= len(self.batch_ids):
                return
            self._next += 1
            idx = self.batch_ids[pos]
            workload = self.workloads[idx % len(self.workloads)]
            t0 = sim.now
            yield from self.system.sampling_engine.batch_process(
                self.runtime, workload
            )
            t1 = sim.now
            self.phases.record(
                "neighbor_sampling", t1 - t0, worker=name, start_s=t0
            )
            yield from self.system.feature_engine.batch_process(
                self.runtime, workload.input_nodes
            )
            t2 = sim.now
            self.phases.record(
                "feature_lookup", t2 - t1, worker=name, start_s=t1
            )
            yield from self._settle_remote(idx, name)
            yield from self.queue.put(WorkItem(idx, workload))

    def spawn_all(self, n_workers: int):
        sim = self.runtime.sim
        return [
            sim.process(self.worker(i), name=f"producer-{i}")
            for i in range(n_workers)
        ]
