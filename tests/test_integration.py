"""Cross-module integration tests: whole-system consistency."""

import numpy as np
import pytest

from repro import (
    DESIGNS,
    ExecutionRequest,
    SamplingWorkload,
    SystemSpec,
    build_gpu_model,
    build_system,
    load_dataset,
    run_pipeline,
)
from repro.experiments.common import (
    ExperimentConfig,
    make_workloads,
    sampling_throughput,
    scaled_instance,
)
from repro.gnn import NeighborSampler

CFG = ExperimentConfig(edge_budget=3e5, batch_size=24, n_workloads=5)


@pytest.fixture(scope="module")
def setup():
    ds = scaled_instance("protein-pi", CFG)
    workloads = make_workloads(ds, CFG)
    return ds, workloads


def test_public_api_roundtrip():
    """The README quickstart snippet works end to end."""
    ds = load_dataset("reddit", variant="large-scale", scale=1e-5)
    sampler = NeighborSampler(ds.graph, fanouts=(25, 10))
    batch = sampler.sample_batch(
        np.arange(32), np.random.default_rng(0)
    )
    workload = SamplingWorkload.from_minibatch(batch)
    mmap = build_system(SystemSpec("ssd-mmap"), ds)
    isp = build_system(SystemSpec("smartsage-hwsw"), ds)
    speedup = (
        mmap.sampling_engine.batch_cost(workload).total_s
        / isp.sampling_engine.batch_cost(workload).total_s
    )
    assert speedup > 3.0


def test_every_design_completes_a_pipeline(setup):
    ds, workloads = setup
    gpu = build_gpu_model(ds, CFG.hw)
    for design in DESIGNS:
        system = build_system(
            SystemSpec(design, fanouts=CFG.fanouts), ds, hw=CFG.hw
        )
        result = run_pipeline(
            ExecutionRequest(
                gpu=gpu, workloads=workloads, n_batches=6, n_workers=3,
                mode="event",
            ),
            system=system,
        )
        assert result.n_batches == 6, design
        assert result.elapsed_s > 0, design
        assert 0.0 <= result.gpu_idle_fraction <= 1.0, design


def test_pipeline_deterministic(setup):
    ds, workloads = setup
    gpu = build_gpu_model(ds, CFG.hw)

    def once():
        system = build_system(
            SystemSpec("ssd-mmap", fanouts=CFG.fanouts), ds, hw=CFG.hw
        )
        return run_pipeline(
            ExecutionRequest(
                gpu=gpu, workloads=workloads, n_batches=8, n_workers=4,
                mode="event",
            ),
            system=system,
        ).elapsed_s

    assert once() == pytest.approx(once(), rel=1e-12)


def test_ssd_byte_accounting_consistent(setup):
    """Bytes the engine claims must match the device's counters."""
    ds, workloads = setup
    system = build_system(
        SystemSpec("smartsage-sw", fanouts=CFG.fanouts), ds, hw=CFG.hw
    )
    before = system.ssd.host_bytes_out
    cost = system.sampling_engine.batch_cost(workloads[0])
    moved = system.ssd.host_bytes_out - before
    assert moved == cost.bytes_from_ssd


def test_isp_counters_consistent(setup):
    ds, workloads = setup
    system = build_system(
        SystemSpec("smartsage-hwsw", fanouts=CFG.fanouts), ds, hw=CFG.hw
    )
    engine = system.sampling_engine
    engine.batch_cost(workloads[0])
    assert engine.driver.commands_sent == 1
    assert engine.control.commands_executed == 1
    assert engine.generator.batches_planned == 1
    assert system.ssd.cores.core_seconds_isp > 0


def test_throughput_scales_with_workers_until_saturation(setup):
    ds, workloads = setup
    t1 = sampling_throughput(
        "smartsage-sw", ds, workloads, CFG, n_workers=1, n_batches=6
    )
    t4 = sampling_throughput(
        "smartsage-sw", ds, workloads, CFG, n_workers=4, n_batches=12
    )
    assert t4 > 1.5 * t1
    assert t4 < 6.0 * t1


def test_oracle_beats_hwsw_at_high_worker_count(setup):
    ds, workloads = setup
    hwsw = sampling_throughput(
        "smartsage-hwsw", ds, workloads, CFG, n_workers=8, n_batches=16
    )
    oracle = sampling_throughput(
        "smartsage-oracle", ds, workloads, CFG, n_workers=8,
        n_batches=16,
    )
    assert oracle > hwsw


def test_workload_reuse_does_not_mutate(setup):
    """Engines must not mutate the shared workload objects."""
    ds, workloads = setup
    w = workloads[0]
    before = (
        w.total_targets, w.total_samples, w.subgraph_bytes,
        w.input_nodes.copy(),
    )
    for design in ("ssd-mmap", "smartsage-sw", "smartsage-hwsw"):
        system = build_system(
            SystemSpec(design, fanouts=CFG.fanouts), ds, hw=CFG.hw
        )
        system.sampling_engine.batch_cost(w)
    assert w.total_targets == before[0]
    assert w.total_samples == before[1]
    assert w.subgraph_bytes == before[2]
    assert np.array_equal(w.input_nodes, before[3])


def test_fanout_config_propagates(setup):
    """Granularity and fanouts flow from config to the ISP driver."""
    ds, workloads = setup
    system = build_system(
        SystemSpec("smartsage-hwsw", fanouts=(7, 3), granularity=8),
        ds,
        hw=CFG.hw,
    )
    assert system.sampling_engine.fanouts == (7, 3)
    system.sampling_engine.batch_cost(workloads[0])
    expected_cmds = -(-workloads[0].num_seeds // 8)
    assert system.sampling_engine.driver.commands_sent == expected_cmds
