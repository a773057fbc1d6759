"""Experiment harness: one module per paper figure/table, plus extensions.

Each module registers itself with the experiment registry
(:func:`repro.api.experiment.register_experiment`): a ``plan(cfg)``
that splits the experiment into independent units (zero-arg callables
or declarative :class:`~repro.api.spec.RunSpec`\\ s), a ``collect``
that merges unit outputs into the experiment's result, a ``render``
for the paper-style text, and (where the default flattening is not
enough) a ``records`` hook emitting structured
:class:`~repro.api.experiment.RunRecord` rows -- the machine-readable
artifact a :class:`~repro.api.campaign.Campaign` serializes to
JSON/CSV.  That protocol is the only way an experiment runs:
``repro run <name>`` / ``repro run all`` (a campaign),
:func:`~repro.api.experiment.run_experiment` (one experiment, in
process), or a campaign file.  ``python -m repro list`` prints the
index (README "Command line").
"""

# registration order is listing order: Table I, the figures in paper
# order, then the extensions
from repro.experiments import (  # noqa: F401  isort: skip
    table1_datasets,
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
    fig20_graphsaint,
    fig21_sampling_rate,
    calibration,
    energy,
    sensitivity_batch,
    ablations,
    fidelity,
    cache_sensitivity,
    cache_hierarchy,
    depth_sensitivity,
    shard_scaling,
    host_scaling,
    gids_vs_isp,
    service_traffic,
    fault_sweep,
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
]
