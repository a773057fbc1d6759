"""Execution-backend protocol shared by every pipeline strategy.

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

import operator
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.config import FABRIC_TOPOLOGIES
from repro.errors import ConfigError
from repro.sim.stats import PhaseBreakdown

__all__ = [
    "PipelineResult",
    "ExecutionRequest",
    "ExecutionBackend",
    "drive",
]


def drive(sim, procs, what: str = "pipeline") -> float:
    """Run ``sim`` until every process in ``procs`` completes.

    The one run-to-completion loop every event-driven backend shares;
    raises :class:`ConfigError` if the event queue drains first (a
    deadlock).  Returns the final simulation time.
    """
    from repro.sim.engine import all_of

    done = all_of(sim, procs)
    while not done.triggered:
        if not sim.step():
            raise ConfigError(f"{what} deadlocked")
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

    The first block mirrors the historical ``run_pipeline`` signature;
    the second carries the scale-out axes that only some backends read
    (``n_shards``/``partition``/``graph`` for ``sharded``,
    ``prefetch_depth`` for ``async``).  ``graph`` is the dataset's
    :class:`~repro.graph.csr.CSRGraph`; :class:`~repro.api.session.Session`
    always supplies it, direct ``run_pipeline`` callers only need to
    when they ask for a graph-partitioning backend.

    ``system_factory``, when given, builds a *fresh, cache-warmed*
    system equivalent to ``system``; multi-device backends call it once
    per device group so each group owns independent engine/cache state
    instead of mutating one shared instance.  ``system`` may then be
    ``None`` -- single-device backends resolve it lazily through
    :meth:`base_system`, so a replicating backend never pays for an
    instance it would discard.
    """

    system: Optional[object]           # TrainingSystem
    gpu: object                        # GPUModel
    workloads: List                    # List[SamplingWorkload]
    n_batches: int
    n_workers: int
    queue_depth: int = 4
    checkpoint_every: int = 0
    checkpoint_bytes: int = 0
    # -- scale-out axes ----------------------------------------------------
    n_shards: int = 1
    #: host replicas (mode="distributed"); each holds ``n_shards`` groups
    n_hosts: int = 1
    #: network fabric topology between hosts (mode="distributed")
    fabric: str = "rack"
    partition: str = "edge-cut"
    prefetch_depth: int = 2
    #: GPU-resident queue-pair depth (mode="gids")
    qp_depth: int = 64
    graph: Optional[object] = None     # CSRGraph
    system_factory: Optional[Callable[[], object]] = None
    #: degraded-operation plan (repro.faults.FaultPlan); event-driven
    #: backends create one fresh FaultInjector per simulation from it
    faults: Optional[object] = None
    #: feature-cache tier stack (see repro.cache); ``None`` keeps each
    #: backend's legacy cache behavior and stats byte-identical
    cache_tiers: Optional[tuple] = None
    #: replacement policy shared by the stack (``None`` -> ``"lru"``)
    cache_policy: Optional[str] = None

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

    def _check_count(self, name: str, minimum: int = 1) -> None:
        """Require an integral field ``>= minimum``, naming the field
        and its legal range in the error (a bad shard/host count must
        fail here, not as an IndexError deep in graph partitioning)."""
        value = getattr(self, name)
        try:
            if isinstance(value, bool):
                raise TypeError
            as_int = operator.index(value)
        except TypeError:
            raise ConfigError(
                f"{name} must be an integer >= {minimum}, "
                f"got {value!r}"
            ) from None
        if as_int < minimum:
            raise ConfigError(
                f"{name} must be >= {minimum}, got {as_int}"
            )
        setattr(self, name, as_int)

    def validate(self) -> "ExecutionRequest":
        if self.system is None and self.system_factory is None:
            raise ConfigError("need a system or a system_factory")
        if not self.workloads:
            raise ConfigError("need at least one workload")
        for name in ("n_batches", "n_workers", "queue_depth",
                     "n_shards", "n_hosts", "prefetch_depth", "qp_depth"):
            self._check_count(name)
        from repro.graph.partition import PARTITION_METHODS

        if self.partition not in PARTITION_METHODS:
            raise ConfigError(
                f"partition must be one of {PARTITION_METHODS}, "
                f"got {self.partition!r}"
            )
        if self.fabric not in FABRIC_TOPOLOGIES:
            raise ConfigError(
                f"fabric must be one of {FABRIC_TOPOLOGIES}, "
                f"got {self.fabric!r}"
            )
        if self.faults is not None:
            from repro.faults import FaultPlan

            if isinstance(self.faults, dict):
                self.faults = FaultPlan.from_dict(self.faults)
            if not isinstance(self.faults, FaultPlan):
                raise ConfigError(
                    f"faults must be a FaultPlan or mapping, "
                    f"got {self.faults!r}"
                )
            self.faults.validate()
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


class ExecutionBackend:
    """Protocol base for class-style backends.

    Function-style backends (a callable ``plan(request) ->
    PipelineResult``) register directly; subclasses of this base are
    instantiated once at registration time.
    """

    name = "base"

    def plan(self, request: ExecutionRequest) -> PipelineResult:
        raise NotImplementedError
