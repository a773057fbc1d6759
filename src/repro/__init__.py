"""SmartSAGE (ISCA 2022) reproduction.

A full-stack simulated system for training large-scale GNNs out of NVMe
storage: graph substrate, SSD/NAND/FTL/NVMe models, host I/O paths, a
numpy GraphSAGE, the producer-consumer training pipeline, and the
SmartSAGE in-storage-processing co-design -- plus experiment harnesses
regenerating every figure and table of the paper's evaluation.

Quickstart -- the declarative ``Session`` API::

    from repro import RunSpec, Session, SystemSpec

    spec = RunSpec(
        dataset="reddit", edge_budget=2e5, batch_size=32,
        n_batches=12, n_workers=4,
        system=SystemSpec(design="smartsage-hwsw"),
    )
    session = Session.from_spec(spec)
    result = session.run()            # end-to-end PipelineResult
    print(result.throughput_batches_per_s, result.gpu_idle_fraction)

    # Same dataset + workloads, every paper design point:
    cmp = session.compare(["ssd-mmap", "smartsage-sw", "smartsage-hwsw"])
    print(cmp.table())                # Fig 18-style speedup table

Specs serialize to JSON (``spec.to_json(path)`` /
``RunSpec.from_json(path)``; CLI: ``python -m repro run-spec spec.json``),
and new design points plug in without touching core::

    from repro import register_design

    @register_design("my-csd", ssd_backed=True)
    def build_my_csd(ctx):            # ctx: repro.core.systems.DesignContext
        ssd = ctx.make_ssd()
        return ctx.make_system(ssd=ssd, sampling_engine=...,
                               feature_engine=ctx.dram_feature_engine())

The lower-level surface (``build_system``, ``run_pipeline`` with an
``ExecutionRequest``, ``NeighborSampler``...) remains available for piecewise use; see
``examples/`` for both styles.
"""

from repro.api import (
    RunSpec,
    Session,
    SystemSpec,
    available_designs,
    register_design,
    unregister_design,
)
from repro.config import HardwareParams, default_hardware, scaled_hardware
from repro.core import (
    DESIGNS,
    BatchCost,
    SamplingWorkload,
    TrainingSystem,
    build_gpu_model,
    build_system,
)
from repro.errors import (
    ConfigError,
    GraphError,
    ReproError,
    SimulationError,
    StorageError,
)
from repro.graph import CSRGraph, GraphDataset, load_dataset
from repro.graph.partition import GraphPartition, partition_graph
from repro.pipeline import (
    ExecutionRequest,
    PipelineResult,
    available_backends,
    register_backend,
    run_pipeline,
    unregister_backend,
)

__version__ = "1.1.0"

__all__ = [
    "__version__",
    "HardwareParams",
    "default_hardware",
    "scaled_hardware",
    "CSRGraph",
    "GraphDataset",
    "load_dataset",
    "DESIGNS",
    "TrainingSystem",
    "build_system",
    "build_gpu_model",
    "BatchCost",
    "SamplingWorkload",
    "run_pipeline",
    "ExecutionRequest",
    "PipelineResult",
    "Session",
    "RunSpec",
    "SystemSpec",
    "register_design",
    "unregister_design",
    "available_designs",
    "register_backend",
    "unregister_backend",
    "available_backends",
    "GraphPartition",
    "partition_graph",
    "ReproError",
    "SimulationError",
    "GraphError",
    "StorageError",
    "ConfigError",
]
