"""Tests for NSConfig, the subgraph generator, ISP control, and systems."""

import numpy as np
import pytest

from repro.api import SystemSpec
from repro.config import default_hardware
from repro.core import (
    DESIGNS,
    ISPControlUnit,
    NSConfig,
    SamplingWorkload,
    SubgraphGenerator,
    build_gpu_model,
    build_system,
)
from repro.errors import ConfigError
from repro.experiments.common import (
    ExperimentConfig,
    make_workloads,
    scaled_instance,
)
from repro.graph.layout import EdgeListLayout
from repro.sim.engine import Simulator
from repro.storage.ssd import SSDevice

CFG = ExperimentConfig(edge_budget=2e5, batch_size=16, n_workloads=3)


@pytest.fixture(scope="module")
def setup():
    ds = scaled_instance("protein-pi", CFG)
    workloads = make_workloads(ds, CFG)
    layout = EdgeListLayout(ds.graph)
    return ds, workloads, layout


# -- NSConfig -----------------------------------------------------------


def test_nsconfig_build(setup):
    ds, workloads, layout = setup
    cfg = NSConfig.build(workloads[0].seeds, layout, (25, 10))
    assert cfg.num_targets == 16
    assert cfg.wire_bytes == 64 + 16 * 16
    assert cfg.target_lbas.size == 16


def test_nsconfig_split(setup):
    ds, workloads, layout = setup
    cfg = NSConfig.build(workloads[0].seeds, layout, (25, 10))
    parts = list(cfg.split(5))
    assert [p.num_targets for p in parts] == [5, 5, 5, 1]
    joined = np.concatenate([p.target_nodes for p in parts])
    assert np.array_equal(joined, cfg.target_nodes)


def test_nsconfig_validation(setup):
    ds, workloads, layout = setup
    with pytest.raises(ConfigError):
        NSConfig.build(np.array([], dtype=np.int64), layout, (25,))
    with pytest.raises(ConfigError):
        NSConfig.build(workloads[0].seeds, layout, ())
    cfg = NSConfig.build(workloads[0].seeds, layout, (5,))
    with pytest.raises(ConfigError):
        list(cfg.split(0))


@pytest.mark.parametrize("granularity", [None, 1, 5, 16, 40])
def test_isp_command_spans_match_nsconfig_split(setup, granularity):
    """The ISP engine sizes each command's NSconfig from its target
    count alone; that must equal the split config's wire size."""
    ds, workloads, layout = setup
    system = build_system(
        SystemSpec("smartsage-hwsw", granularity=granularity), ds
    )
    w = workloads[0]
    parts = list(NSConfig.build(w.seeds, layout, (25, 10))
                 .split(granularity or w.num_seeds))
    spans = system.sampling_engine._command_spans(w)
    n = len(parts)
    assert spans == tuple(
        (i / n, (i + 1) / n, p.wire_bytes) for i, p in enumerate(parts)
    )


def test_isp_engine_rejects_nonpositive_fanouts(setup):
    ds, _, _ = setup
    hw = default_hardware().replace_in("workload", fanouts=(10, 0))
    with pytest.raises(ConfigError, match="positive fanouts"):
        build_system(SystemSpec("smartsage-hwsw"), ds, hw=hw)


# -- SubgraphGenerator ----------------------------------------------------


def test_generator_plan_counts(setup):
    ds, workloads, layout = setup
    gen = SubgraphGenerator(SSDevice(default_hardware()), layout)
    plan = gen.plan(workloads[0])
    assert plan.n_targets == workloads[0].total_targets
    assert plan.n_samples == workloads[0].total_samples
    assert plan.pages_touched >= plan.pages_from_flash
    assert plan.return_bytes == workloads[0].subgraph_bytes
    assert plan.core_seconds > 0


def test_generator_page_buffer_dedup(setup):
    """Re-planning the same batch hits the device page buffer."""
    ds, workloads, layout = setup
    gen = SubgraphGenerator(SSDevice(default_hardware()), layout)
    first = gen.plan(workloads[0])
    second = gen.plan(workloads[0])
    assert second.pages_from_flash < first.pages_from_flash


def test_generator_spans_partition_targets(setup):
    ds, workloads, layout = setup
    gen = SubgraphGenerator(SSDevice(default_hardware()), layout)
    spans = [(0.0, 0.5), (0.5, 1.0)]
    plans = [gen.plan_span(workloads[0], a, b) for a, b in spans]
    total = sum(p.n_targets for p in plans)
    assert total == pytest.approx(workloads[0].total_targets, abs=2)


def test_generator_span_validation(setup):
    ds, workloads, layout = setup
    gen = SubgraphGenerator(SSDevice(default_hardware()), layout)
    with pytest.raises(ConfigError):
        gen.plan_span(workloads[0], 0.5, 0.5)
    with pytest.raises(ConfigError):
        gen.plan_span(workloads[0], -0.1, 1.0)


# -- ISPControlUnit ---------------------------------------------------------


def test_control_unit_analytic_components(setup):
    ds, workloads, layout = setup
    ssd = SSDevice(default_hardware())
    gen = SubgraphGenerator(ssd, layout)
    unit = ISPControlUnit(ssd)
    plan = gen.plan(workloads[0])
    cost = unit.execute(plan, nsconfig_bytes=1024)
    for comp in (
        "cmd_processing", "nsconfig_dma", "isp_flash", "isp_compute",
        "return_dma",
    ):
        assert comp in cost.components
    # overlap accounting: total charges max(flash, compute), not the sum
    overlapped = max(
        cost.component("isp_flash"), cost.component("isp_compute")
    )
    expected = (
        cost.component("cmd_processing")
        + cost.component("nsconfig_dma")
        + overlapped
        + cost.component("return_dma")
    )
    assert cost.total_s == pytest.approx(expected, rel=1e-9)


def test_control_unit_event_mode_runs(setup):
    ds, workloads, layout = setup
    ssd = SSDevice(default_hardware())
    gen = SubgraphGenerator(ssd, layout)
    unit = ISPControlUnit(ssd)
    plan = gen.plan(workloads[0])
    sim = Simulator()
    state = ssd.attach(sim)

    def run():
        yield from unit.execute_process(sim, state, plan, 1024)

    proc = sim.process(run())
    sim.run_until_complete(proc)
    assert sim.now > 0
    assert state.flash_pages_read == plan.pages_from_flash


# -- systems ------------------------------------------------------------


def test_build_all_designs(setup):
    ds, *_ = setup
    for design in DESIGNS:
        system = build_system(SystemSpec(design), ds)
        assert system.design == design
        if design in ("dram", "pmem"):
            assert not system.uses_ssd
        else:
            assert system.uses_ssd


def test_build_unknown_design_rejected(setup):
    ds, *_ = setup
    with pytest.raises(ConfigError):
        build_system(SystemSpec("floppy-disk"), ds)


def test_feature_layout_placed_after_edges(setup):
    ds, *_ = setup
    system = build_system(SystemSpec("ssd-mmap"), ds)
    assert (
        system.feature_layout.base_byte >= system.edge_layout.total_bytes
    )
    assert system.feature_layout.base_byte % 4096 == 0


def test_oracle_has_more_cores(setup):
    ds, *_ = setup
    normal = build_system(SystemSpec("smartsage-hwsw"), ds)
    oracle = build_system(SystemSpec("smartsage-oracle"), ds)
    sim1, sim2 = Simulator(), Simulator()
    r1 = normal.attach(sim1)
    r2 = oracle.attach(sim2)
    assert r2.ssd_state.cores.capacity > r1.ssd_state.cores.capacity


def test_attach_creates_fresh_runtime(setup):
    ds, *_ = setup
    system = build_system(SystemSpec("ssd-mmap"), ds)
    r1 = system.attach(Simulator())
    r2 = system.attach(Simulator())
    assert r1.ssd_state is not r2.ssd_state


def test_gpu_model_builder(setup):
    ds, workloads, _ = setup
    gpu = build_gpu_model(ds)
    w = workloads[0]
    assert gpu.transfer_time(w) > 0
    assert gpu.train_time(w) > gpu.gpu.kernel_overhead_s
    assert gpu.consume_time(w) == pytest.approx(
        gpu.transfer_time(w) + gpu.train_time(w)
    )


def test_page_buffer_scaled_to_dataset(setup):
    ds, *_ = setup
    system = build_system(
        SystemSpec("smartsage-hwsw", page_buffer_frac=0.01), ds
    )
    expected = max(
        16,
        int(system.edge_layout.total_bytes * 0.01)
        // system.ssd.nand.page_bytes,
    )
    assert system.ssd.page_buffer.capacity == expected
