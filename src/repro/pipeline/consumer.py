"""The GPU consumer process (Fig 4's training side)."""

from __future__ import annotations

from typing import Callable, Optional

from repro.pipeline.gpu import GPUModel
from repro.pipeline.timeline import PhaseAccumulator
from repro.pipeline.workqueue import WorkQueue
from repro.sim.stats import UtilizationTracker

__all__ = ["GPUConsumer"]


class GPUConsumer:
    """Pops prepared batches and runs transfer + training for each.

    Optionally checkpoints the model to the SSD every
    ``checkpoint_every`` batches (``checkpoint_bytes`` of parameters +
    optimizer state, written write-back), exercising the storage write
    path during training.

    On a multi-host topology every step also stalls ``allreduce_s`` for
    the gradient collective's critical path; ``on_allreduce`` (set on
    one consumer per host, so a host's device groups -- which reduce
    locally before touching the NIC -- are not double-counted) charges
    the wire bytes.  ``recovery_at`` is the batch (within this
    consumer's own count) after which the host fails and replays
    ``recovery_s`` of checkpoint restore and re-warm.  At the defaults
    none of these schedule an event.
    """

    def __init__(
        self,
        gpu: GPUModel,
        queue: WorkQueue,
        n_batches: int,
        phases: PhaseAccumulator,
        ssd=None,
        checkpoint_every: int = 0,
        checkpoint_bytes: int = 0,
        allreduce_s: float = 0.0,
        on_allreduce: Optional[Callable[[], None]] = None,
        recovery_at: Optional[int] = None,
        recovery_s: float = 0.0,
    ):
        self.gpu = gpu
        self.queue = queue
        self.n_batches = n_batches
        self.phases = phases
        self.utilization = UtilizationTracker()
        self.batches_done = 0
        self.finished_at = 0.0
        self.ssd = ssd
        self.checkpoint_every = checkpoint_every
        self.checkpoint_bytes = checkpoint_bytes
        self.checkpoints_written = 0
        self.allreduce_s = allreduce_s
        self.on_allreduce = on_allreduce
        self.recovery_at = recovery_at
        self.recovery_s = recovery_s

    def run(self, sim):
        """Generator: the single GPU worker process."""
        for _ in range(self.n_batches):
            # Waiting on the queue is GPU idle time (Fig 7).
            item = yield from self.queue.get()
            self.utilization.set_busy(sim.now)
            t0 = sim.now
            yield self.gpu.transfer_time(item.workload)
            t1 = sim.now
            self.phases.record(
                "cpu_to_gpu", t1 - t0, worker="gpu", start_s=t0
            )
            yield self.gpu.train_time(item.workload)
            t2 = sim.now
            self.phases.record(
                "gnn_training", t2 - t1, worker="gpu", start_s=t1
            )
            self.utilization.set_idle(sim.now)
            self.batches_done += 1
            if (
                self.recovery_at is not None
                and self.recovery_s > 0.0
                and self.batches_done - 1 == self.recovery_at
            ):
                t3 = sim.now
                yield self.recovery_s
                self.phases.record(
                    "host_recovery", sim.now - t3, worker="gpu", start_s=t3
                )
            if self.allreduce_s > 0.0:
                t3 = sim.now
                yield self.allreduce_s
                if self.on_allreduce is not None:
                    self.on_allreduce()
                self.phases.record(
                    "grad_allreduce", sim.now - t3, worker="gpu", start_s=t3
                )
            if (
                self.ssd is not None
                and self.checkpoint_every > 0
                and self.batches_done % self.checkpoint_every == 0
            ):
                t3 = sim.now
                yield self.ssd.host_write_latency(
                    max(4096, self.checkpoint_bytes)
                )
                self.phases.record(
                    "else", sim.now - t3, worker="gpu", start_s=t3
                )
                self.checkpoints_written += 1
        self.finished_at = sim.now

    def idle_fraction(self, now: float) -> float:
        return self.utilization.idle_fraction(now)
