"""CPU-side producer workers (Fig 4's data-preparation processes)."""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.pipeline.timeline import PhaseAccumulator
from repro.pipeline.workqueue import WorkItem, WorkQueue
from repro.sim.resources import Resource

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

    A ``prefetch_depth`` splits each worker into two stages, the
    overlapped organisation of GIDS-style systems: ``n_workers``
    samplers feed a prefetch queue and ``n_workers`` feature workers
    drain it, so sampling batch ``i+d`` overlaps the feature lookup of
    batch ``i``.  A credit semaphore of ``prefetch_depth`` bounds the
    batches in flight between the stages: depth 1 serializes
    preparation, and widening the window never slows the pipeline.
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
        prefetch_depth: int = 0,
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
        self._fetched = 0
        self.prefetch = self.credits = None
        if prefetch_depth:
            sim = runtime.sim
            self.prefetch = WorkQueue(sim, depth=prefetch_depth)
            self.credits = Resource(
                sim, capacity=prefetch_depth, name="prefetch-credits"
            )

    def _settle_remote(self, idx: int, name: str):
        """Generator: the batch's cache service, remote pull and
        cross-host RPCs, in that order (no events when all-local)."""
        sim = self.runtime.sim
        cost_s = self.remote_cost.get(idx, 0.0)
        if cost_s > 0.0:
            t0 = sim.now
            yield cost_s
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

    def _sample(self, workload, name: str):
        """Generator: neighbor sampling of one batch."""
        sim = self.runtime.sim
        t0 = sim.now
        yield from self.system.sampling_engine.batch_process(
            self.runtime, workload
        )
        self.phases.record(
            "neighbor_sampling", sim.now - t0, worker=name, start_s=t0
        )

    def _lookup(self, workload, name: str):
        """Generator: feature lookup of one batch."""
        sim = self.runtime.sim
        t0 = sim.now
        yield from self.system.feature_engine.batch_process(
            self.runtime, workload
        )
        self.phases.record(
            "feature_lookup", sim.now - t0, worker=name, start_s=t0
        )

    def _claim(self):
        """The next unclaimed batch id and its workload."""
        idx = self.batch_ids[self._next]
        self._next += 1
        return idx, self.workloads[idx % len(self.workloads)]

    def worker(self, worker_id: int):
        """Generator: one single-stage producer process."""
        name = f"producer-{worker_id}"
        while self._next < len(self.batch_ids):
            idx, workload = self._claim()
            yield from self._sample(workload, name)
            yield from self._lookup(workload, name)
            yield from self._settle_remote(idx, name)
            yield from self.queue.put(WorkItem(idx, workload))

    def sampler(self, worker_id: int):
        """Generator: a first-stage process, sampling batches into the
        prefetch queue under one credit each."""
        name = f"sampler-{worker_id}"
        while self._next < len(self.batch_ids):
            yield self.credits.acquire()
            if self._next >= len(self.batch_ids):
                self.credits.release()
                return
            idx, workload = self._claim()
            yield from self._sample(workload, name)
            yield from self.prefetch.put(WorkItem(idx, workload))

    def feature_worker(self, worker_id: int):
        """Generator: a second-stage process, draining the prefetch
        queue into the GPU queue.  It claims a batch before waiting on
        the queue, so the stage pops exactly one item per batch and
        every worker terminates."""
        name = f"feature-{worker_id}"
        while self._fetched < len(self.batch_ids):
            self._fetched += 1
            item = yield from self.prefetch.get()
            yield from self._lookup(item.workload, name)
            self.credits.release()
            yield from self._settle_remote(item.batch_index, name)
            yield from self.queue.put(item)

    def spawn_all(self, n_workers: int):
        """Start ``n_workers`` producers -- or, with a prefetch window,
        ``n_workers`` samplers followed by ``n_workers`` feature
        workers."""
        sim = self.runtime.sim
        if self.prefetch is None:
            return [
                sim.process(self.worker(i), name=f"producer-{i}")
                for i in range(n_workers)
            ]
        return [
            sim.process(self.sampler(i), name=f"sampler-{i}")
            for i in range(n_workers)
        ] + [
            sim.process(self.feature_worker(i), name=f"feature-{i}")
            for i in range(n_workers)
        ]
