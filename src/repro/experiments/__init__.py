"""Experiment harness: one module per paper figure/table, plus extensions.

Each module registers itself with the Campaign API
(:func:`repro.api.experiment.register_experiment`): a ``plan(cfg)``
that splits the experiment into independent units (zero-arg callables
or declarative :class:`~repro.api.spec.RunSpec`\\ s), a ``collect``
that merges unit outputs into the experiment's result, and (where the
default flattening is not enough) a ``records`` hook emitting
structured :class:`~repro.api.experiment.RunRecord` rows -- the
machine-readable artifact a :class:`~repro.api.campaign.Campaign`
serializes to JSON/CSV.  The legacy surface -- ``run(cfg)``,
``render(result) -> str``, ``main()`` -- is kept as thin shims over the
same pieces.  ``ALL_EXPERIMENTS`` maps experiment name to module;
``python -m repro list`` prints the index (README "Command line").
"""

from repro.experiments import (  # noqa: F401
    ablations,
    cache_hierarchy,
    cache_sensitivity,
    calibration,
    depth_sensitivity,
    energy,
    fidelity,
    fig05_characterization,
    fig06_breakdown,
    fig07_gpu_idle,
    fig13_degree,
    fig14_single_worker,
    fig15_coalescing,
    fig16_multi_worker,
    fig17_worker_scaling,
    fig18_end_to_end,
    fig19_fpga,
    fault_sweep,
    fig20_graphsaint,
    fig21_sampling_rate,
    gids_vs_isp,
    host_scaling,
    sensitivity_batch,
    service_traffic,
    shard_scaling,
    table1_datasets,
)
from repro.experiments.common import (
    EVAL_DATASETS,
    EVAL_DESIGNS,
    ExperimentConfig,
    build_eval_system,
    design_sweep,
    make_workloads,
    sampling_throughput,
    scaled_instance,
    steady_state_cost,
)

ALL_EXPERIMENTS = {
    "table1": table1_datasets,
    "fig05": fig05_characterization,
    "fig06": fig06_breakdown,
    "fig07": fig07_gpu_idle,
    "fig13": fig13_degree,
    "fig14": fig14_single_worker,
    "fig15": fig15_coalescing,
    "fig16": fig16_multi_worker,
    "fig17": fig17_worker_scaling,
    "fig18": fig18_end_to_end,
    "fig19": fig19_fpga,
    "fig20": fig20_graphsaint,
    "fig21": fig21_sampling_rate,
    "calibration": calibration,
    "energy": energy,
    "batch-sensitivity": sensitivity_batch,
    "ablations": ablations,
    "fidelity": fidelity,
    "cache-sensitivity": cache_sensitivity,
    "cache-hierarchy": cache_hierarchy,
    "depth-sensitivity": depth_sensitivity,
    "shard-scaling": shard_scaling,
    "host-scaling": host_scaling,
    "gids-vs-isp": gids_vs_isp,
    "service-traffic": service_traffic,
    "fault-sweep": fault_sweep,
}

__all__ = [
    "ExperimentConfig",
    "EVAL_DATASETS",
    "EVAL_DESIGNS",
    "scaled_instance",
    "make_workloads",
    "steady_state_cost",
    "design_sweep",
    "build_eval_system",
    "sampling_throughput",
    "ALL_EXPERIMENTS",
]
