"""Tests for the GPU-initiated direct-access (GIDS) path: storage
model, designs, execution backend, spec knobs, and CLI exposure."""

import numpy as np
import pytest

from repro.__main__ import main as cli_main
from repro.api import RunSpec, Session, SystemSpec, available_designs
from repro.config import HardwareParams, default_hardware
from repro.core import build_gpu_model, build_system
from repro.errors import ConfigError, StorageError
from repro.experiments.common import (
    ExperimentConfig,
    make_workloads,
    scaled_instance,
)
from repro.pipeline import ExecutionRequest, run_pipeline
from repro.pipeline.backends import available_backends, backend_entry
from repro.storage.gids import (
    BARTraffic,
    GIDSController,
    GIDSQueuePairs,
)
from repro.storage.ssd import SSDevice

CFG = ExperimentConfig(edge_budget=3e5, batch_size=24, n_workloads=5)


@pytest.fixture(scope="module")
def setup():
    ds = scaled_instance("reddit", CFG)
    workloads = make_workloads(ds, CFG)
    gpu = build_gpu_model(ds, CFG.hw)
    return ds, workloads, gpu


def build(design, ds, workloads, **kwargs):
    system = build_system(
        SystemSpec(design, fanouts=CFG.fanouts, **kwargs), ds, hw=CFG.hw
    )
    for w in workloads[:2]:
        system.sampling_engine.batch_cost(w)
    return system


def small_spec(**kwargs):
    base = dict(
        dataset="reddit", edge_budget=3e5, batch_size=24,
        n_workloads=5, n_batches=8, n_workers=2, mode="gids",
        system=SystemSpec(design="gids-cached"),
    )
    base.update(kwargs)
    return RunSpec(**base)


# -- storage model ----------------------------------------------------------


def test_queue_pairs_warp_granular_submission():
    params = default_hardware().gids
    qp = GIDSQueuePairs(params, qp_depth=16)
    assert qp.warps(1) == 1
    assert qp.warps(params.warp_size) == 1
    assert qp.warps(params.warp_size + 1) == 2
    per_warp = params.submit_s + params.doorbell_s + params.poll_s
    assert qp.submission_cost(params.warp_size) == pytest.approx(per_warp)
    assert qp.submission_cost(3 * params.warp_size) == pytest.approx(
        3 * per_warp
    )
    assert qp.submission_cost(0) == 0.0
    assert qp.requests_submitted == 4 * params.warp_size
    assert qp.doorbells_rung == 4
    with pytest.raises(StorageError):
        GIDSQueuePairs(params, qp_depth=0)


def test_bar_traffic_accounting():
    traffic = BARTraffic()
    traffic.record(4, 16384)
    traffic.record(1, 4096)
    assert traffic.transactions == 5
    assert traffic.bar_bytes == 20480
    assert traffic.bounce_bytes_avoided == traffic.bar_bytes


def test_controller_direct_read_skips_host_bounce():
    hw = HardwareParams()
    ssd = SSDevice(hw)
    ctl = GIDSController(SSDevice(hw))
    sizes = np.full(8, 4096)
    direct = ctl.direct_read_latency_batch(sizes)
    host = ssd.host_read_latency_batch(sizes)
    # same firmware/FTL/flash path; GIDS trades the NVMe host-software
    # command cost for one extra PCIe switch hop
    expected = (
        host
        - hw.nvme.command_overhead_s
        + hw.pcie.p2p_switch_latency_s
    )
    assert np.allclose(direct, expected)
    assert ctl.traffic.bar_bytes == int(sizes.sum())
    with pytest.raises(StorageError):
        ctl.qp_depth = 0


# -- designs + registry -----------------------------------------------------


def test_gids_designs_registered():
    designs = available_designs()
    assert "gids-baseline" in designs
    assert "gids-cached" in designs
    assert "gids" in available_backends()
    assert not backend_entry("gids").needs_graph


def test_gids_designs_build_with_controller(setup):
    ds, workloads, _ = setup
    baseline = build("gids-baseline", ds, workloads)
    cached = build("gids-cached", ds, workloads)
    assert baseline.gids is not None and baseline.gids.cache is None
    assert cached.gids.cache is not None
    assert baseline.uses_ssd and cached.uses_ssd
    # features are storage-backed by construction: warm-up moved bytes
    assert cached.gids.traffic.bar_bytes > 0


def test_gpu_cache_mb_sizes_the_cache(setup):
    ds, workloads, _ = setup
    small = build_system(
        SystemSpec("gids-cached", gpu_cache_mb=1.0), ds, hw=CFG.hw
    )
    big = build_system(
        SystemSpec("gids-cached", gpu_cache_mb=64.0), ds, hw=CFG.hw
    )
    assert small.gids.cache.capacity_pages < big.gids.cache.capacity_pages
    with pytest.raises(ConfigError, match="gpu_cache_mb"):
        build_system(
            SystemSpec("gids-cached", gpu_cache_mb=0), ds, hw=CFG.hw
        )


# -- backend ----------------------------------------------------------------


def test_gids_mode_requires_gids_design(setup):
    ds, workloads, gpu = setup
    with pytest.raises(ConfigError, match="gids-baseline"):
        run_pipeline(
            ExecutionRequest(
                gpu=gpu, workloads=workloads[2:], n_batches=4, n_workers=2,
                mode="gids",
            ),
            system=build("ssd-mmap", ds, workloads),
        )


def test_gids_backend_end_to_end(setup):
    ds, workloads, gpu = setup
    result = run_pipeline(
        ExecutionRequest(
            gpu=gpu, workloads=workloads[2:], n_batches=8, n_workers=2,
            mode="gids",
        ),
        system=build("gids-cached", ds, workloads),
    )
    assert result.mode == "gids"
    assert result.design == "gids-cached"
    assert result.n_batches == 8
    assert result.backend_stats["bar_bytes"] > 0
    assert (
        result.backend_stats["bounce_bytes_avoided"]
        == result.backend_stats["bar_bytes"]
    )
    assert result.backend_stats["doorbells"] > 0
    assert 0.0 < result.backend_stats["gpu_cache_hit_rate"] < 1.0
    assert set(result.phase_means) >= {
        "neighbor_sampling", "feature_lookup", "cpu_to_gpu",
        "gnn_training",
    }
    # features arrive over the BAR: only subgraph structure crosses the
    # host->GPU link, so the copy phase is far below the event backend's
    event = run_pipeline(
        ExecutionRequest(
            gpu=gpu, workloads=workloads[2:], n_batches=8, n_workers=2,
            mode="event",
        ),
        system=build("gids-cached", ds, workloads),
    )
    assert (
        result.phase_means["cpu_to_gpu"]
        < event.phase_means["cpu_to_gpu"]
    )


def test_gids_cache_speeds_up_feature_path(setup):
    ds, workloads, gpu = setup

    def elapsed(design):
        return run_pipeline(
            ExecutionRequest(
                gpu=gpu, workloads=workloads[2:], n_batches=8, n_workers=2,
                mode="gids",
            ),
            system=build(design, ds, workloads),
        ).elapsed_s

    assert elapsed("gids-cached") < elapsed("gids-baseline")


def test_gids_qp_depth_throttles(setup):
    ds, workloads, gpu = setup

    def elapsed(depth):
        return run_pipeline(
            ExecutionRequest(
                gpu=gpu, workloads=workloads[2:], n_batches=8, n_workers=4,
                mode="gids", qp_depth=depth,
            ),
            system=build("gids-baseline", ds, workloads),
        ).elapsed_s

    shallow, deep = elapsed(1), elapsed(16)
    assert shallow > deep


# -- spec / session integration ---------------------------------------------


def test_runspec_gids_round_trip():
    spec = small_spec(
        qp_depth=8,
        system=SystemSpec(design="gids-cached", gpu_cache_mb=16.0),
    )
    again = RunSpec.from_dict(spec.to_dict())
    assert again == spec
    assert again.validate().qp_depth == 8
    assert again.system.gpu_cache_mb == 16.0


def test_spec_gids_knobs_validated():
    with pytest.raises(ConfigError, match="qp_depth"):
        small_spec(qp_depth=0).validate()
    with pytest.raises(ConfigError, match="gpu_cache_mb"):
        small_spec(
            system=SystemSpec(design="gids-cached", gpu_cache_mb=-1)
        ).validate()
    with pytest.raises(ConfigError, match="gpu_cache_mb"):
        small_spec(
            system=SystemSpec(design="gids-cached", gpu_cache_mb=True)
        ).validate()


def test_session_runs_gids_mode():
    result = Session(small_spec()).run()
    assert result.mode == "gids"
    assert result.design == "gids-cached"
    assert result.backend_stats["qp_depth"] == 64.0


# -- experiment -------------------------------------------------------------


def test_gids_vs_isp_experiment_records():
    from repro.api.experiment import experiment_entry, run_experiment

    entry = experiment_entry("gids-vs-isp")
    assert "extension" in entry.tags
    cfg = ExperimentConfig(
        edge_budget=2e5, batch_size=16, n_workloads=4
    )
    out = run_experiment(entry, cfg)
    arms = out.result["arms"]
    assert set(arms) == {
        "ssd-mmap", "smartsage-hwsw", "gids-baseline", "gids-cached"
    }
    assert arms["ssd-mmap"]["speedup_vs_mmap"] == pytest.approx(1.0)
    assert arms["gids-cached"]["bar_gb"] > 0
    records = out.records
    assert len(records) == 4
    by_design = {r.design: r for r in records}
    assert by_design["gids-cached"].params["mode"] == "gids"
    assert "throughput_batches_per_s" in by_design["gids-cached"].metrics
    assert any(
        k.startswith("phase_") for k in by_design["gids-cached"].metrics
    )
    assert "GIDS vs ISP" in out.rendered


# -- CLI --------------------------------------------------------------------


def test_cli_designs_lists_gids_designs(capsys):
    assert cli_main(["designs"]) == 0
    out = capsys.readouterr().out
    assert "gids-baseline" in out
    assert "gids-cached" in out


def test_cli_backends_lists_gids(capsys):
    assert cli_main(["backends"]) == 0
    out = capsys.readouterr().out
    assert "gids" in out
    assert "GPU-initiated" in out


def test_cli_run_spec_gids_mode(tmp_path, capsys):
    path = tmp_path / "gids.json"
    small_spec().to_json(str(path))
    assert cli_main(["run-spec", str(path)]) == 0
    out = capsys.readouterr().out
    assert "mode:        gids" in out
