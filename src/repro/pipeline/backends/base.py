"""The request/result pair shared by every pipeline strategy.

An execution backend decides *how* prepared batches flow through the
system -- single-device producer/consumer, closed-form analytic,
sharded multi-device, asynchronous prefetch pipelines -- while the
*what* (systems, engines, GPU model, workloads) stays fixed.  Backends
receive one :class:`ExecutionRequest` and return one
:class:`PipelineResult`; they register through
:mod:`repro.pipeline.backends.registry` exactly like design points
register through :mod:`repro.api.registry`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.api.validation import (
    PIPELINE_COUNTS,
    TOPOLOGY_COUNTS,
    check_count,
    check_fabric,
    check_faults,
    check_partition,
)
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


#: request knobs copied by name from :class:`~repro.api.spec.RunSpec`
_RUN_KNOBS = ("mode", *PIPELINE_COUNTS)
#: request knobs copied by name from :class:`~repro.api.spec.SystemSpec`
_SYSTEM_KNOBS = (
    *TOPOLOGY_COUNTS, "fabric", "partition", "faults", "cache_tiers",
    "cache_policy",
)


@dataclass
class ExecutionRequest:
    """Everything a backend needs to execute one training run.

    The first block is what every mode reads; the second carries the
    axes only some modes expose (``n_shards``/``partition``/``graph``
    for the shards axis, ``n_hosts``/``fabric`` for the hosts axis,
    ``prefetch_depth`` for the prefetch axis, ``qp_depth`` for
    ``gids``); a mode ignores the knobs of axes it does not expose.
    ``graph`` is the dataset's :class:`~repro.graph.csr.CSRGraph`;
    :meth:`from_spec` always supplies it, hand-built requests only need
    to when they ask for a graph-partitioning backend.

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

    gpu: object                        # GPUModel
    workloads: List                    # List[SamplingWorkload]
    n_batches: int
    n_workers: int
    mode: str = "event"
    queue_depth: int = 4
    checkpoint_every: int = 0
    checkpoint_bytes: int = 0
    # -- per-axis knobs ----------------------------------------------------
    n_shards: int = 1
    #: host replicas (hosts axis); each holds ``n_shards`` groups
    n_hosts: int = 1
    #: network fabric topology between hosts (hosts axis)
    fabric: str = "rack"
    partition: str = "edge-cut"
    #: prefetch window between samplers and feature workers
    prefetch_depth: int = 2
    #: GPU-resident queue-pair depth (mode="gids")
    qp_depth: int = 64
    graph: Optional[object] = None     # CSRGraph
    #: degraded-operation plan (repro.faults.FaultPlan); event-driven
    #: backends create one fresh FaultInjector per simulation from it
    faults: Optional[object] = None
    #: feature-cache tier stack (see repro.cache); ``None`` keeps each
    #: backend's legacy cache behavior and stats byte-identical
    cache_tiers: Optional[tuple] = None
    #: replacement policy shared by the stack (``None`` -> ``"lru"``)
    cache_policy: Optional[str] = None
    # -- the system one run executes on ------------------------------------
    system: Optional[object] = None    # TrainingSystem
    system_factory: Optional[Callable[[], object]] = None

    @classmethod
    def from_spec(cls, spec, *, gpu, workloads,
                  graph=None) -> "ExecutionRequest":
        """The request a :class:`~repro.api.spec.RunSpec` declares, run
        on ``workloads`` with ``gpu``; ``graph`` feeds the shards and
        hosts axes."""
        return cls(
            gpu=gpu,
            workloads=list(workloads),
            graph=graph,
            **{name: getattr(spec, name) for name in _RUN_KNOBS},
            **{name: getattr(spec.system, name) for name in _SYSTEM_KNOBS},
        )

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

    def validate(self) -> "ExecutionRequest":
        """Check every knob, normalizing counts to ``int``, ``faults``
        to a :class:`~repro.faults.FaultPlan` and ``cache_tiers`` to a
        tuple."""
        if not self.workloads:
            raise ConfigError("need at least one workload")
        for counts in (PIPELINE_COUNTS, TOPOLOGY_COUNTS):
            for name, minimum in counts.items():
                setattr(self, name,
                        check_count(name, getattr(self, name), minimum))
        check_partition(self.partition)
        check_fabric(self.fabric)
        self.faults = check_faults(self.faults)
        from repro.cache.tiers import check_cache_config

        self.cache_tiers, self.cache_policy = check_cache_config(
            self.cache_tiers, self.cache_policy
        )
        return self

    def injector(self):
        """A fresh :class:`~repro.faults.FaultInjector` for one
        simulation, or ``None`` when no plan is set.  Fresh per call
        so repeated runs of one request replay identical faults."""
        if self.faults is None:
            return None
        from repro.faults import FaultInjector

        return FaultInjector(self.faults)
