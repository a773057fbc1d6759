"""The request/result pair shared by every pipeline strategy.

An execution backend decides *how* prepared batches flow through the
system -- single-device producer/consumer, closed-form analytic,
sharded multi-device, asynchronous prefetch pipelines -- while the
*what* (systems, engines, GPU model, workloads) stays fixed.  Backends
receive one :class:`ExecutionRequest` -- the validated
:class:`~repro.api.spec.RunSpec` plus what it materialized -- and
return one :class:`PipelineResult`; they register through
:mod:`repro.pipeline.backends.registry` exactly like design points
register through :mod:`repro.api.registry`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.errors import ConfigError
from repro.sim.stats import PhaseBreakdown

__all__ = [
    "PipelineResult",
    "ExecutionRequest",
    "drive",
]


def drive(sim, procs, what: str = "pipeline") -> float:
    """Run ``sim`` until every process in ``procs`` completes.

    The one run-to-completion loop every event-driven backend shares;
    re-raises the exception of a process that failed, and raises
    :class:`ConfigError` if the event queue drains first (a deadlock).
    Returns the final simulation time.
    """
    from repro.sim.engine import all_of

    done = all_of(sim, procs)
    if not sim.run_until_triggered(done):
        raise ConfigError(f"{what} deadlocked")
    if done._failed:
        raise done.value
    return sim.now


@dataclass
class PipelineResult:
    """Outcome of one pipeline run."""

    design: str
    mode: str
    n_batches: int
    n_workers: int
    elapsed_s: float
    gpu_busy_s: float
    gpu_idle_fraction: float
    #: mean per-batch duration of each phase (Fig 6/18 stacked bars)
    phase_means: Dict[str, float] = field(default_factory=dict)
    #: device groups the run was sharded across (1 = single device)
    n_shards: int = 1
    #: backend-specific scalars (cut fraction, remote bytes, depth, ...)
    backend_stats: Dict[str, float] = field(default_factory=dict)

    @property
    def throughput_batches_per_s(self) -> float:
        return self.n_batches / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def breakdown(self) -> PhaseBreakdown:
        out = PhaseBreakdown()
        for phase, mean in self.phase_means.items():
            out.add(phase, mean)
        return out

    @property
    def per_batch_latency_s(self) -> float:
        return sum(self.phase_means.values())


@dataclass
class ExecutionRequest:
    """Everything a backend needs to execute one training run.

    ``spec`` is the :class:`~repro.api.spec.RunSpec` the run executes:
    backends read every pipeline knob from it (``spec.n_batches``,
    ``spec.queue_depth``, ...) and every topology knob from its
    :class:`~repro.api.spec.SystemSpec` (``spec.system.n_shards``,
    ``spec.system.fabric``, ...); a mode ignores the knobs of axes it
    does not expose.  :func:`~repro.pipeline.runner.run_pipeline`
    validates the spec, the one check of those knobs.  ``graph`` is
    the dataset's :class:`~repro.graph.csr.CSRGraph`;
    :attr:`Session.request <repro.api.session.Session.request>` always
    supplies it, hand-built requests only need to when they ask for a
    graph-partitioning backend.

    ``system`` and ``system_factory`` are bound per run by
    :func:`~repro.pipeline.runner.run_pipeline`, so one request can run
    many designs.  ``system_factory``, when given, builds a *fresh,
    cache-warmed* system; multi-device backends call it once per device
    group so each group owns independent engine/cache state instead of
    mutating one shared instance.  ``system`` may then be ``None`` --
    single-device backends resolve it lazily through
    :meth:`base_system`, so a replicating backend never pays for an
    instance it would discard.
    """

    spec: object                       # RunSpec
    gpu: object                        # GPUModel
    workloads: List                    # List[SamplingWorkload]
    graph: Optional[object] = None     # CSRGraph
    # -- the system one run executes on ------------------------------------
    system: Optional[object] = None    # TrainingSystem
    system_factory: Optional[Callable[[], object]] = None

    def base_system(self):
        """The request's system, built on first use when only a
        factory was supplied."""
        if self.system is None:
            self.system = self.system_factory()
        return self.system

    def fresh_system(self):
        """A fresh warmed system replica (falls back to ``system``)."""
        if self.system_factory is not None:
            return self.system_factory()
        return self.system

    def injector(self):
        """A fresh :class:`~repro.faults.FaultInjector` for one
        simulation, or ``None`` when no plan is set.  Fresh per call
        so repeated runs of one request replay identical faults."""
        faults = self.spec.system.faults
        if faults is None:
            return None
        from repro.faults import FaultInjector

        return FaultInjector(faults)
