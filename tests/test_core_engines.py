"""Tests for the per-design-point sampling and feature engines."""

import numpy as np
import pytest

from repro.api import SystemSpec
from repro.config import default_hardware
from repro.core import SamplingWorkload, build_system
from repro.errors import ConfigError
from repro.experiments.common import (
    ExperimentConfig,
    make_workloads,
    scaled_instance,
    steady_state_cost,
)
from repro.gnn import NeighborSampler

CFG = ExperimentConfig(edge_budget=4e5, batch_size=32, n_workloads=5)


@pytest.fixture(scope="module")
def setup():
    ds = scaled_instance("reddit", CFG)
    workloads = make_workloads(ds, CFG)
    return ds, workloads


def build(design, ds, **kw):
    return build_system(
        SystemSpec(design, fanouts=CFG.fanouts, **kw), ds, hw=CFG.hw
    )


def test_workload_extraction(setup):
    ds, workloads = setup
    w = workloads[0]
    assert w.num_seeds == 32
    assert w.total_targets == sum(t.size for t in w.hop_targets)
    assert w.subgraph_bytes == (w.total_targets + w.total_samples) * 8
    assert len(w.block_sizes) == len(CFG.fanouts)


def test_all_designs_return_positive_costs(setup):
    ds, workloads = setup
    for design in (
        "dram", "pmem", "ssd-mmap", "smartsage-sw",
        "smartsage-hwsw", "smartsage-oracle", "fpga-csd",
    ):
        system = build(design, ds)
        cost = system.sampling_engine.batch_cost(workloads[0])
        assert cost.total_s > 0, design
        assert cost.components, design


def test_design_ordering_single_worker(setup):
    """The Fig 14/18 single-worker ordering must hold:
    DRAM < PMEM < HW/SW < SW < mmap."""
    ds, workloads = setup
    costs = {}
    for design in (
        "dram", "pmem", "ssd-mmap", "smartsage-sw", "smartsage-hwsw",
    ):
        system = build(design, ds)
        costs[design] = steady_state_cost(
            system.sampling_engine, workloads
        ).total_s
    assert costs["dram"] < costs["pmem"]
    assert costs["pmem"] < costs["smartsage-hwsw"]
    assert costs["smartsage-hwsw"] < costs["smartsage-sw"]
    assert costs["smartsage-sw"] < costs["ssd-mmap"]


def test_sw_speedup_band(setup):
    """SmartSAGE(SW) vs mmap on Reddit: in the 1.2x-3x band (Fig 14)."""
    ds, workloads = setup
    mmap = steady_state_cost(
        build("ssd-mmap", ds).sampling_engine, workloads
    ).total_s
    sw = steady_state_cost(
        build("smartsage-sw", ds).sampling_engine, workloads
    ).total_s
    assert 1.2 < mmap / sw < 3.5


def test_hwsw_speedup_band(setup):
    """SmartSAGE(HW/SW) vs mmap on Reddit: in the ~8x-15x band (Fig 14)."""
    ds, workloads = setup
    mmap = steady_state_cost(
        build("ssd-mmap", ds).sampling_engine, workloads
    ).total_s
    hwsw = steady_state_cost(
        build("smartsage-hwsw", ds).sampling_engine, workloads
    ).total_s
    assert 6.0 < mmap / hwsw < 18.0


def test_fpga_csd_no_better_than_sw(setup):
    """Fig 19: the FPGA CSD fails to beat SmartSAGE(SW)."""
    ds, workloads = setup
    sw = steady_state_cost(
        build("smartsage-sw", ds).sampling_engine, workloads
    ).total_s
    fpga = steady_state_cost(
        build("fpga-csd", ds).sampling_engine, workloads
    ).total_s
    assert fpga > 0.7 * sw  # roughly equal or worse, never a clear win


def test_isp_data_movement_reduction(setup):
    """ISP moves far less data over PCIe than the mmap baseline (~20x
    in the paper)."""
    ds, workloads = setup
    mmap_cost = steady_state_cost(
        build("ssd-mmap", ds).sampling_engine, workloads
    )
    isp_cost = steady_state_cost(
        build("smartsage-hwsw", ds).sampling_engine, workloads
    )
    reduction = mmap_cost.bytes_from_ssd / max(1, isp_cost.bytes_from_ssd)
    assert reduction > 5.0


def test_isp_single_command_per_batch(setup):
    ds, workloads = setup
    system = build("smartsage-hwsw", ds)
    system.sampling_engine.batch_cost(workloads[0])
    assert system.sampling_engine.driver.commands_sent == 1


def test_isp_granularity_increases_cost(setup):
    """Fig 15: smaller coalescing granularity means more commands and a
    slower batch."""
    ds, workloads = setup
    full = build(
        "smartsage-hwsw", ds, granularity=None
    ).sampling_engine.batch_cost(workloads[0]).total_s
    fine = build(
        "smartsage-hwsw", ds, granularity=1
    ).sampling_engine.batch_cost(workloads[0]).total_s
    # at the experiment's full 1024-seed batches the collapse is much
    # larger (see the fig15 experiment); at this scaled 32-seed batch the
    # per-command overheads still cost a clear constant factor
    assert fine > 1.25 * full


def test_granularity_sweep_monotone(setup):
    ds, workloads = setup
    times = []
    for g in (32, 8, 2, 1):
        system = build("smartsage-hwsw", ds, granularity=g)
        times.append(
            system.sampling_engine.batch_cost(workloads[0]).total_s
        )
    assert all(b >= a * 0.95 for a, b in zip(times, times[1:]))


def test_mmap_warm_cache_cheaper(setup):
    ds, workloads = setup
    system = build("ssd-mmap", ds)
    cold = system.sampling_engine.batch_cost(workloads[0]).total_s
    warm = system.sampling_engine.batch_cost(workloads[0]).total_s
    assert warm < cold


def test_feature_engine_dram_default(setup):
    """Paper setup: feature tables fit in host DRAM for every design."""
    ds, workloads = setup
    for design in ("ssd-mmap", "smartsage-hwsw"):
        system = build(design, ds)
        assert system.feature_engine.design == "dram"
        cost = system.feature_engine.batch_cost(workloads[0])
        assert cost.total_s < 1e-3


def test_feature_engine_storage_backed_extension(setup):
    ds, workloads = setup
    mmap_sys = build("ssd-mmap", ds, features_in_dram=False)
    direct_sys = build("smartsage-hwsw", ds, features_in_dram=False)
    w = workloads[0]
    t_mmap = mmap_sys.feature_engine.batch_cost(w).total_s
    t_direct = direct_sys.feature_engine.batch_cost(w).total_s
    dram_sys = build("dram", ds)
    t_dram = dram_sys.feature_engine.batch_cost(w).total_s
    assert t_dram < t_direct
    assert t_dram < t_mmap


def test_dram_engine_llc_fraction_validation():
    from repro.core.sampling_engines import DRAMSamplingEngine

    with pytest.raises(ConfigError):
        DRAMSamplingEngine(default_hardware(), llc_hit_fraction=1.5)


def test_saint_workload_cheaper_than_sage():
    """Fig 20 mechanism: SAINT subgraphs cost much less I/O per batch.

    Uses a low-degree dataset with many nodes so the SAGE frontier is not
    capped by the tiny test graph's node count.
    """
    ds = scaled_instance("amazon", CFG)
    saint_ws = make_workloads(ds, CFG, sampler_kind="saint")
    sage_ws = make_workloads(ds, CFG, sampler_kind="sage")
    assert saint_ws[0].total_targets < sage_ws[0].total_targets
    system = build("ssd-mmap", ds)
    saint_cost = steady_state_cost(system.sampling_engine, saint_ws).total_s
    system2 = build("ssd-mmap", ds)
    sage_cost = steady_state_cost(system2.sampling_engine, sage_ws).total_s
    assert saint_cost < sage_cost


def test_event_mode_matches_analytic_single_worker(setup):
    """One uncontended worker: DES elapsed tracks the analytic cost."""
    from repro.sim.engine import Simulator

    ds, workloads = setup
    for design in ("ssd-mmap", "smartsage-sw", "smartsage-hwsw"):
        analytic_sys = build(design, ds)
        analytic = steady_state_cost(
            analytic_sys.sampling_engine, workloads, warmup=2
        ).total_s

        event_sys = build(design, ds)
        for w in workloads[:2]:
            event_sys.sampling_engine.batch_cost(w)  # warm caches
        sim = Simulator()
        runtime = event_sys.attach(sim)

        def run(sys_=event_sys, rt=runtime):
            for w in workloads[2:]:
                yield from sys_.sampling_engine.batch_process(rt, w)

        proc = sim.process(run())
        sim.run_until_complete(proc)
        event = sim.now / len(workloads[2:])
        assert event == pytest.approx(analytic, rel=0.35), design
