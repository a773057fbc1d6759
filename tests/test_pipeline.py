"""Tests for the GPU model and the producer-consumer pipeline runner."""

import pytest

from repro.api import SystemSpec
from repro.core import build_gpu_model, build_system
from repro.errors import ConfigError
from repro.experiments.common import (
    ExperimentConfig,
    make_workloads,
    scaled_instance,
)
from repro.pipeline import run_pipeline

from pipeline_request import make_request

CFG = ExperimentConfig(edge_budget=3e5, batch_size=24, n_workloads=5)


@pytest.fixture(scope="module")
def setup():
    ds = scaled_instance("reddit", CFG)
    workloads = make_workloads(ds, CFG)
    gpu = build_gpu_model(ds, CFG.hw)
    return ds, workloads, gpu


def run(design, ds, workloads, gpu, mode="event", workers=4, batches=12):
    system = build_system(
        SystemSpec(design, fanouts=CFG.fanouts), ds, hw=CFG.hw
    )
    for w in workloads[:2]:
        system.sampling_engine.batch_cost(w)
    return run_pipeline(
        make_request(
            gpu=gpu, workloads=workloads[2:], n_batches=batches,
            n_workers=workers, mode=mode,
        ),
        system=system,
    )


def test_pipeline_event_completes(setup):
    ds, workloads, gpu = setup
    result = run("dram", ds, workloads, gpu)
    assert result.n_batches == 12
    assert result.elapsed_s > 0
    assert result.throughput_batches_per_s > 0


def test_dram_pipeline_is_gpu_bound(setup):
    """Fig 7: in-memory processing keeps the GPU almost fully busy."""
    ds, workloads, gpu = setup
    result = run("dram", ds, workloads, gpu, workers=8)
    assert result.gpu_idle_fraction < 0.15


def test_mmap_pipeline_starves_gpu(setup):
    """Fig 7: the mmap SSD baseline leaves the GPU idle most of the time."""
    ds, workloads, gpu = setup
    result = run("ssd-mmap", ds, workloads, gpu, workers=4)
    assert result.gpu_idle_fraction > 0.6


def test_e2e_ordering(setup):
    """Fig 18 ordering: DRAM < HW/SW < SW < mmap end-to-end time."""
    ds, workloads, gpu = setup
    times = {
        d: run(d, ds, workloads, gpu, workers=8, batches=16).elapsed_s
        for d in ("dram", "ssd-mmap", "smartsage-sw", "smartsage-hwsw")
    }
    assert times["dram"] < times["smartsage-hwsw"]
    assert times["smartsage-hwsw"] < times["smartsage-sw"]
    assert times["smartsage-sw"] < times["ssd-mmap"]


def test_phase_means_populated(setup):
    ds, workloads, gpu = setup
    result = run("ssd-mmap", ds, workloads, gpu)
    for phase in (
        "neighbor_sampling", "feature_lookup", "cpu_to_gpu", "gnn_training",
    ):
        assert result.phase_means.get(phase, 0.0) > 0
    # mmap: sampling dominates the per-batch latency (Fig 6)
    assert result.phase_means["neighbor_sampling"] > (
        result.phase_means["gnn_training"]
    )


def test_breakdown_object(setup):
    ds, workloads, gpu = setup
    result = run("dram", ds, workloads, gpu)
    breakdown = result.breakdown()
    assert breakdown.total() == pytest.approx(result.per_batch_latency_s)
    fractions = breakdown.fractions()
    assert sum(fractions.values()) == pytest.approx(1.0)


def test_analytic_mode_matches_event_roughly(setup):
    ds, workloads, gpu = setup
    ev = run("ssd-mmap", ds, workloads, gpu, mode="event",
             workers=2, batches=12)
    an = run("ssd-mmap", ds, workloads, gpu, mode="analytic",
             workers=2, batches=12)
    assert an.elapsed_s == pytest.approx(ev.elapsed_s, rel=0.5)


def test_more_workers_help_producer_bound_systems(setup):
    ds, workloads, gpu = setup
    slow = run("ssd-mmap", ds, workloads, gpu, workers=1, batches=12)
    fast = run("ssd-mmap", ds, workloads, gpu, workers=8, batches=12)
    assert fast.elapsed_s < slow.elapsed_s


def test_pipeline_validation(setup):
    ds, workloads, gpu = setup
    system = build_system(SystemSpec("dram"), ds)
    with pytest.raises(ConfigError):
        run_pipeline(
            make_request(
                gpu=gpu, workloads=workloads, n_batches=0, n_workers=1,
            ),
            system=system,
        )
    with pytest.raises(ConfigError):
        run_pipeline(
            make_request(
                gpu=gpu, workloads=[], n_batches=4, n_workers=1,
            ),
            system=system,
        )
    with pytest.raises(ConfigError):
        run_pipeline(
            make_request(
                gpu=gpu, workloads=workloads, n_batches=4, n_workers=1,
                mode="quantum",
            ),
            system=system,
        )


def test_gpu_model_flops_scale_with_blocks(setup):
    ds, workloads, gpu = setup
    small = [(10, 50, 100), (5, 10, 25)]
    big = [(100, 500, 1000), (50, 100, 250)]
    assert gpu.flops(big) > gpu.flops(small)


def test_gpu_model_validation():
    from repro.config import GPUParams, PCIeParams
    from repro.pipeline import GPUModel

    with pytest.raises(ConfigError):
        GPUModel(GPUParams(), PCIeParams(), feature_dim=0,
                 hidden_dim=8, num_classes=2)
