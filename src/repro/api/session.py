"""The ``Session`` façade: dataset -> system -> GPU -> pipeline in one call.

A :class:`Session` materializes everything a :class:`~repro.api.spec.RunSpec`
declares -- the scaled dataset, the mini-batch workload pool, the GPU
model, and any number of design-point systems -- and exposes the
measurements the paper's figures are built from::

    spec = RunSpec(dataset="movielens",
                   system=SystemSpec(design="smartsage-hwsw"))
    session = Session.from_spec(spec)
    result = session.run()                       # PipelineResult
    costs = session.sampling_costs(["ssd-mmap", "smartsage-hwsw"])
    cmp = session.compare(["ssd-mmap", "smartsage-hwsw", "dram"])
    print(cmp.table())

Datasets and workload pools are built lazily and shared across every
design built from the same session, so comparisons are apples-to-apples
by construction.  The module-level helpers (:func:`scaled_dataset`,
:func:`generate_workloads`, :func:`steady_state_cost`,
:func:`sampling_throughput`) are the canonical implementations that
``repro.experiments.common`` delegates to.
"""

from __future__ import annotations

import dataclasses
import numbers
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.cache import active_cache, cached, spec_key
from repro.api.spec import RunSpec, SystemSpec
from repro.config import HardwareParams
from repro.core.accounting import BatchCost, SamplingWorkload
from repro.core.systems import TrainingSystem, build_gpu_model, build_system
from repro.errors import ConfigError
from repro.graph.datasets import DATASETS, LARGE_SCALE, GraphDataset
from repro.graph.generators import DEFAULT_RMAT_DRAW
from repro.pipeline.backends.base import ExecutionRequest, drive
from repro.pipeline.gpu import GPUModel
from repro.pipeline.runner import PipelineResult, run_pipeline

__all__ = [
    "Session",
    "DesignComparison",
    "SweepResults",
    "canonical_sweep_key",
    "scaled_dataset",
    "generate_workloads",
    "steady_state_cost",
    "sampling_throughput",
]


def canonical_sweep_key(value) -> Tuple:
    """Type-aware, cross-process-stable canonical form of a sweep value.

    Plain ``dict`` keys conflate hashable-but-equal sweep points (``1``
    vs ``True`` vs ``1.0`` share one slot) and the historical ``repr``
    fallback for unhashable values was process-dependent for some
    types.  This finishes the ``hash()``-randomization cleanup the
    dataset seeding started: every JSON-representable axis value maps
    to a tuple that (a) distinguishes values of different type and (b)
    is identical in every process (floats via ``repr``, which
    round-trips exactly; mappings sorted by key).
    """
    if isinstance(value, bool):
        return ("bool", value)
    if isinstance(value, numbers.Integral):
        return ("int", int(value))
    if isinstance(value, numbers.Real):
        return ("float", repr(float(value)))
    if isinstance(value, str):
        return ("str", value)
    if value is None:
        return ("none",)
    if isinstance(value, (list, tuple)):
        return ("seq", tuple(canonical_sweep_key(v) for v in value))
    if isinstance(value, dict):
        return (
            "map",
            tuple(
                sorted(
                    (str(k), canonical_sweep_key(v))
                    for k, v in value.items()
                )
            ),
        )
    return ("repr", type(value).__name__, repr(value))


class SweepResults(Mapping):
    """Sweep results looked up by the *original* axis values.

    Entries are keyed internally by :func:`canonical_sweep_key`, so
    equal-but-distinct values (``1`` vs ``True`` vs ``1.0``) stay
    separate sweep points, unhashable values (``hardware`` override
    dicts) are first-class keys, and iteration yields the original
    values in sweep order.
    """

    def __init__(self) -> None:
        self._entries: Dict[Tuple, Tuple[object, PipelineResult]] = {}

    def add(self, value, result: PipelineResult) -> None:
        """Record one sweep point; duplicates are a :class:`ConfigError`."""
        key = canonical_sweep_key(value)
        if key in self._entries:
            raise ConfigError(
                f"duplicate sweep point {value!r} "
                f"(canonical key {key!r})"
            )
        self._entries[key] = (value, result)

    def __getitem__(self, value) -> PipelineResult:
        try:
            return self._entries[canonical_sweep_key(value)][1]
        except KeyError:
            raise KeyError(value) from None

    def __iter__(self) -> Iterator:
        return iter(v for v, _ in self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, value) -> bool:
        return canonical_sweep_key(value) in self._entries

    def __repr__(self) -> str:
        points = ", ".join(repr(v) for v in self)
        return f"SweepResults([{points}])"


def scaled_dataset(
    name: str,
    edge_budget: float,
    variant: str = LARGE_SCALE,
    seed: int = 0,
    rmat_draw: str = DEFAULT_RMAT_DRAW,
) -> GraphDataset:
    """Materialize ``name`` at ``edge_budget`` edges, true avg degree.

    The budget sets the scale; :meth:`DatasetSpec.instantiate` then
    floors the node count at ``min_nodes=256`` and keeps the true
    degree, so a dense dataset at a small budget gets more edges than
    the budget.  At 1.5e5, ``reddit`` materializes 256 nodes and
    369,930 edges, and ``movielens`` 256 nodes and 682,667 edges.
    ``rmat_draw`` names the RMAT draw contract (``RunSpec.rmat_draw``;
    see :func:`~repro.graph.generators.rmat_graph`): ``"u16"``, the
    default, or ``"f64"``, the draws of graphs made before it existed.

    Memoized through the active :mod:`repro.api.cache` (if any), so a
    campaign materializes each (name, budget, variant, seed, draw) once and
    shares the instance across experiments and worker threads.  When
    the active cache has a :class:`~repro.graph.store.GraphStore` (a
    service pool worker's does: ``<state_dir>/graphs/``), a miss first
    maps the graph from that store, keyed by the cache's ``dataset``
    key, and only generates it when the store has none, saving it for
    the next process.  A stored graph holds the very arrays generation
    gives, so records do not depend on where the graph came from.
    """
    if name not in DATASETS:
        raise ConfigError(f"unknown dataset {name!r}")
    spec = DATASETS[name]
    avg_degree = spec.avg_degree(variant)
    paper_nodes = spec.paper_stats(variant)["nodes"]
    scale = (edge_budget / avg_degree) / paper_nodes
    params = dict(variant=variant, scale=scale, seed=seed, rmat_draw=rmat_draw)
    fields = dict(name=name, **params)

    def build() -> GraphDataset:
        cache = active_cache()
        store = cache.graph_store if cache is not None else None
        if store is None:
            return spec.instantiate(**params)
        key = spec_key("dataset", **fields)
        graph = store.load(key, *spec.shape(variant, scale))
        if graph is None:
            dataset = spec.instantiate(**params)
            store.save(key, dataset.graph)
            return dataset
        return GraphDataset(spec=spec, graph=graph, **params)

    return cached("dataset", fields, build)


def generate_workloads(
    dataset: GraphDataset,
    batch_size: int,
    n_workloads: int,
    fanouts: Sequence[int],
    seed: int = 0,
    sampler: str = "sage",
) -> List[SamplingWorkload]:
    """Sample ``n_workloads`` distinct mini-batches from ``dataset``.

    Memoized through the active :mod:`repro.api.cache` (if any); the
    dataset's own materialization parameters are part of the key, so two
    different instances never collide.  Returns a fresh list each call
    (the workload objects themselves are shared and treated read-only).
    """
    fanouts = tuple(fanouts)
    if sampler not in ("sage", "saint"):
        raise ConfigError(f"unknown sampler kind {sampler!r}")

    def build() -> List[SamplingWorkload]:
        from repro.gnn.saint import SaintRandomWalkSampler
        from repro.gnn.sampler import NeighborSampler

        rng = np.random.default_rng(seed + 1)
        if sampler == "sage":
            impl = NeighborSampler(dataset.graph, fanouts=fanouts)
        else:  # saint (validated above)
            impl = SaintRandomWalkSampler(
                dataset.graph,
                num_roots=batch_size,
                walk_length=2 * len(fanouts),
            )
        workloads = []
        for _ in range(n_workloads):
            seeds = rng.integers(0, dataset.num_nodes, size=batch_size)
            batch = impl.sample_batch(seeds, rng)
            workloads.append(SamplingWorkload.from_minibatch(batch))
        return workloads
    key = dict(
        dataset=dataset.name,
        variant=dataset.variant,
        scale=dataset.scale,
        dataset_seed=dataset.seed,
        rmat_draw=dataset.rmat_draw,
        nodes=dataset.num_nodes,
        edges=dataset.num_edges,
        batch_size=batch_size,
        n_workloads=n_workloads,
        fanouts=fanouts,
        seed=seed,
        sampler=sampler,
    )
    return list(cached("workloads", key, build))


def steady_state_cost(
    engine,
    workloads: Sequence[SamplingWorkload],
    warmup: int = 2,
) -> BatchCost:
    """Mean per-batch cost after cache warm-up, over distinct batches."""
    if not workloads:
        raise ConfigError("need at least one workload")
    warmup = min(warmup, max(0, len(workloads) - 1))
    for w in workloads[:warmup]:
        engine.batch_cost(w)
    measured = workloads[warmup:]
    total = BatchCost(design=getattr(engine, "design", None))
    for w in measured:
        total.merge(engine.batch_cost(w))
    n = len(measured)
    total.total_s /= n
    total.components = {k: v / n for k, v in total.components.items()}
    total.bytes_from_ssd //= n
    total.requests //= n
    return total


def sampling_throughput(
    system: TrainingSystem,
    workloads: Sequence[SamplingWorkload],
    n_workers: int,
    n_batches: int,
    warmup: int = 2,
) -> float:
    """Batches/second of ``n_workers`` concurrent producers, sampling
    only (no feature lookup, no GPU) -- the Fig 14/16/17 measurement.

    Runs in event mode so that workers genuinely contend for the SSD's
    flash lanes, embedded cores, PCIe link, and the page-cache lock.
    """
    from repro.sim.engine import Simulator

    warm = min(warmup, max(0, len(workloads) - 1))
    for w in workloads[:warm]:
        system.sampling_engine.batch_cost(w)
    pool = workloads[warm:]
    sim = Simulator()
    runtime = system.attach(sim)
    counter = {"next": 0}

    def worker():
        while True:
            idx = counter["next"]
            if idx >= n_batches:
                return
            counter["next"] += 1
            yield from system.sampling_engine.batch_process(
                runtime, pool[idx % len(pool)]
            )

    procs = [sim.process(worker()) for _ in range(n_workers)]
    return n_batches / drive(sim, procs, what="sampling throughput run")


@dataclass
class DesignComparison:
    """Per-design pipeline results plus speedup arithmetic (Fig 18)."""

    baseline: str
    results: Dict[str, PipelineResult]

    def speedup(self, design: str, baseline: Optional[str] = None) -> float:
        """End-to-end speedup of ``design`` over ``baseline``."""
        base = baseline or self.baseline
        for name in (design, base):
            if name not in self.results:
                raise ConfigError(
                    f"design {name!r} not in comparison "
                    f"({tuple(self.results)})"
                )
        return (
            self.results[base].elapsed_s / self.results[design].elapsed_s
        )

    def speedups(self, baseline: Optional[str] = None) -> Dict[str, float]:
        return {
            design: self.speedup(design, baseline)
            for design in self.results
        }

    def table(self, baseline: Optional[str] = None) -> str:
        """Text speedup table, one row per design."""
        base = baseline or self.baseline
        lines = [
            f"{'design':18s} {'elapsed':>12s} {'speedup':>9s} "
            f"{'gpu idle':>9s}"
        ]
        for design, r in self.results.items():
            lines.append(
                f"{design:18s} {r.elapsed_s * 1e3:9.2f} ms "
                f"{self.speedup(design, base):8.2f}x "
                f"{r.gpu_idle_fraction:8.0%}"
            )
        lines.append(f"(speedups vs {base})")
        return "\n".join(lines)


#: RunSpec fields that change the materialized dataset
_DATASET_FIELDS = frozenset(
    {"dataset", "variant", "edge_budget", "seed", "rmat_draw"}
)
#: fields that change the sampled workload pool ("hardware" because an
#: override may redefine workload.fanouts, which the pool samples with)
_WORKLOAD_FIELDS = frozenset(
    {"batch_size", "n_workloads", "sampler", "fanouts", "hardware"}
)


class Session:
    """One declarative experiment: build and run systems from a spec.

    Construction validates the spec but materializes nothing; the
    dataset, workload pool, and GPU model are built on first use and
    reused for every design the session touches.  ``dataset``,
    ``workloads``, and ``hw`` can be injected to share already
    materialized state (the experiment harness does this to run many
    sessions against one dataset).
    """

    def __init__(
        self,
        spec: RunSpec,
        dataset: Optional[GraphDataset] = None,
        workloads: Optional[Sequence[SamplingWorkload]] = None,
        hw: Optional[HardwareParams] = None,
    ) -> None:
        if isinstance(spec, dict):
            spec = RunSpec.from_dict(spec)
        if not isinstance(spec, RunSpec):
            raise ConfigError(
                f"spec must be a RunSpec or mapping, got {type(spec).__name__}"
            )
        self.spec = spec.validate()
        self._dataset = dataset
        self._workloads = list(workloads) if workloads is not None else None
        self._hw = hw
        self._gpu: Optional[GPUModel] = None
        self._request: Optional[ExecutionRequest] = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_spec(cls, spec, **kwargs) -> "Session":
        """Build a session from a :class:`RunSpec` (or a plain dict)."""
        return cls(spec, **kwargs)

    @classmethod
    def from_json(cls, path: str, **kwargs) -> "Session":
        """Build a session from a JSON run-spec file."""
        return cls(RunSpec.from_json(path), **kwargs)

    # -- lazily materialized state ----------------------------------------

    @property
    def hw(self) -> HardwareParams:
        if self._hw is None:
            self._hw = self.spec.system.build_hardware()
        return self._hw

    @property
    def fanouts(self) -> tuple:
        return tuple(self.spec.system.fanouts or self.hw.workload.fanouts)

    @property
    def dataset(self) -> GraphDataset:
        if self._dataset is None:
            self._dataset = scaled_dataset(
                self.spec.dataset,
                self.spec.edge_budget,
                variant=self.spec.variant,
                seed=self.spec.seed,
                rmat_draw=self.spec.rmat_draw,
            )
        return self._dataset

    @property
    def workloads(self) -> List[SamplingWorkload]:
        if self._workloads is None:
            self._workloads = generate_workloads(
                self.dataset,
                batch_size=self.spec.batch_size,
                n_workloads=self.spec.n_workloads,
                fanouts=self.fanouts,
                seed=self.spec.seed,
                sampler=self.spec.sampler,
            )
        return self._workloads

    @property
    def gpu(self) -> GPUModel:
        if self._gpu is None:
            self._gpu = build_gpu_model(self.dataset, self.hw)
        return self._gpu

    @property
    def request(self) -> ExecutionRequest:
        """The pipeline request the spec declares, built once: every
        :meth:`run` binds it to a fresh system for its design."""
        if self._request is None:
            self._request = ExecutionRequest.from_spec(
                self.spec,
                gpu=self.gpu,
                workloads=self.workloads[self.spec.warmup_batches:],
                graph=self.dataset.graph,
            )
        return self._request

    # -- building and running ---------------------------------------------

    def build(self, design: Optional[str] = None) -> TrainingSystem:
        """Wire the system for ``design`` (default: the spec's design)."""
        system = self.spec.system
        if design is not None:
            system = dataclasses.replace(system, design=design)
        return build_system(system, self.dataset, hw=self.hw)

    def run(self, design: Optional[str] = None) -> PipelineResult:
        """Build ``design``, warm its caches, run the training pipeline.

        The system is supplied to the backend as a factory (build +
        cache warm-up), so single-device backends materialize exactly
        one instance and multi-device backends one per device group.
        """
        warm = self.spec.warmup_batches

        def warmed_system() -> TrainingSystem:
            fresh = self.build(design)
            for w in self.workloads[:warm]:
                fresh.sampling_engine.batch_cost(w)
            return fresh

        return run_pipeline(self.request, system_factory=warmed_system)

    def sampling_cost(self, design: Optional[str] = None) -> BatchCost:
        """Steady-state single-worker sampling cost (Fig 14 metric)."""
        system = self.build(design)
        return steady_state_cost(
            system.sampling_engine,
            self.workloads,
            warmup=self.spec.warmup_batches,
        )

    def sampling_costs(
        self, designs: Sequence[str]
    ) -> Dict[str, BatchCost]:
        """Steady-state sampling cost per design, same workload pool."""
        return {d: self.sampling_cost(d) for d in designs}

    def sampling_throughput(
        self,
        design: Optional[str] = None,
        n_workers: Optional[int] = None,
        n_batches: Optional[int] = None,
    ) -> float:
        """Multi-worker sampling throughput (Fig 16/17 metric)."""
        workers = n_workers or self.spec.n_workers
        return sampling_throughput(
            self.build(design),
            self.workloads,
            n_workers=workers,
            n_batches=n_batches or max(8, 3 * workers),
            warmup=self.spec.warmup_batches,
        )

    # -- comparisons and sweeps -------------------------------------------

    def compare(
        self,
        designs: Sequence[str],
        baseline: Optional[str] = None,
    ) -> DesignComparison:
        """Run the pipeline on each design over identical workloads."""
        if not designs:
            raise ConfigError("compare needs at least one design")
        results = {d: self.run(d) for d in designs}
        return DesignComparison(
            baseline=baseline or designs[0], results=results
        )

    def sweep(self, axis: str, values: Sequence) -> "SweepResults":
        """Run the spec once per value of ``axis``.

        ``axis`` is any :class:`RunSpec` field (``n_workers``,
        ``batch_size``, ...), any :class:`SystemSpec` field
        (``design``, ``host_cache_frac``, ...), or ``"design"``.
        Materialized state is reused across points whenever the axis
        cannot affect it.  The returned :class:`SweepResults` mapping
        is indexed by the original values but keyed canonically
        (:func:`canonical_sweep_key`), so equal-but-distinct points
        (``1`` vs ``True`` vs ``1.0``) never overwrite each other and
        unhashable values (``hardware`` override dicts) look up
        directly; duplicate sweep points raise :class:`ConfigError`
        before any point runs.

        When every point is analytic-mode the grid is answered by the
        batched evaluator (:mod:`repro.api.batcheval`) -- one phase-cost
        computation per cost group, one vectorized combine -- with
        results bit-identical to per-point :meth:`run`.  Any other grid
        runs point by point.
        """
        run_fields = {
            f.name for f in dataclasses.fields(RunSpec) if f.name != "system"
        }
        sys_fields = {f.name for f in dataclasses.fields(SystemSpec)}
        if axis not in run_fields | sys_fields:
            raise ConfigError(
                f"unknown sweep axis {axis!r}; one of "
                f"{sorted(run_fields | sys_fields)}"
            )
        values = list(values)
        seen: Dict[tuple, object] = {}
        for value in values:
            key = canonical_sweep_key(value)
            if key in seen:
                raise ConfigError(
                    f"duplicate sweep point {value!r} for axis "
                    f"{axis!r} (canonical key {key!r})"
                )
            seen[key] = value
        points: List[Session] = []
        for value in values:
            if axis in sys_fields:
                spec = self.spec.replace(
                    system=dataclasses.replace(
                        self.spec.system, **{axis: value}
                    )
                )
            else:
                spec = self.spec.replace(**{axis: value})
            share_dataset = axis not in _DATASET_FIELDS
            share_workloads = (
                share_dataset and axis not in _WORKLOAD_FIELDS
            )
            points.append(Session(
                spec,
                dataset=self.dataset if share_dataset else None,
                workloads=self.workloads if share_workloads else None,
                hw=self._hw if axis != "hardware" else None,
            ))
        results = SweepResults()
        if points and all(p.spec.mode == "analytic" for p in points):
            from repro.api.batcheval import evaluate_sessions

            for value, result in zip(values, evaluate_sessions(points)):
                results.add(value, result)
        else:
            for value, point in zip(values, points):
                results.add(value, point.run())
        return results
