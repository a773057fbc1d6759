"""Tests for pipeline checkpointing and the depth-sensitivity extension."""

import pytest

from repro.api import SystemSpec
from repro.core import build_gpu_model, build_system
from repro.experiments.common import (
    ExperimentConfig,
    make_workloads,
    scaled_instance,
)
from repro.pipeline import ExecutionRequest, run_pipeline

CFG = ExperimentConfig(edge_budget=2.5e5, batch_size=24, n_workloads=5)


@pytest.fixture(scope="module")
def setup():
    ds = scaled_instance("reddit", CFG)
    workloads = make_workloads(ds, CFG)
    gpu = build_gpu_model(ds, CFG.hw)
    return ds, workloads, gpu


def test_checkpointing_writes_and_costs_time(setup):
    ds, workloads, gpu = setup

    def run(checkpoint_every):
        system = build_system(
            SystemSpec("smartsage-hwsw", fanouts=CFG.fanouts), ds, hw=CFG.hw
        )
        return run_pipeline(
            ExecutionRequest(
                gpu=gpu, workloads=workloads, n_batches=12, n_workers=4,
                mode="event", checkpoint_every=checkpoint_every,
                checkpoint_bytes=4 << 20,
            ),
            system=system,
        )

    without = run(0)
    with_ckpt = run(4)
    assert with_ckpt.elapsed_s > without.elapsed_s
    # checkpoint time appears in the "else" phase
    assert with_ckpt.phase_means.get("else", 0.0) > 0


def test_checkpointing_ignored_for_dram_design(setup):
    ds, workloads, gpu = setup
    system = build_system(
        SystemSpec("dram", fanouts=CFG.fanouts), ds, hw=CFG.hw
    )
    result = run_pipeline(
        ExecutionRequest(
            gpu=gpu, workloads=workloads, n_batches=6, n_workers=2,
            mode="event", checkpoint_every=2, checkpoint_bytes=1 << 20,
        ),
        system=system,
    )
    # dram design has no SSD; checkpointing silently disabled
    assert result.phase_means.get("else", 0.0) == 0.0


def test_depth_sensitivity_monotone_workload(quick_outcome):
    found = quick_outcome("depth-sensitivity")
    result = found.result
    depths = sorted(result["per_depth"])
    targets = [result["per_depth"][d]["targets"] for d in depths]
    assert targets == sorted(targets)  # deeper -> more targets
    for d in depths:
        assert result["per_depth"][d]["hwsw_speedup"] > 2.0
    assert "persists" in found.rendered
