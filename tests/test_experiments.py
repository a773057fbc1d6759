"""Shape tests for every figure/table experiment.

Each experiment's quick-scale result comes from the golden quick suite
(the ``quick_suite`` fixture, ``tests/golden.py``) and must (a) have
completed, (b) render, and (c) reproduce the paper's qualitative shape
(who wins, monotone trends, breakdown dominance).  Quick scale is
``repro run all --quick``: ``edge_budget=3e5``, ``batch_size=48``,
``n_workloads=6``, all five Table I datasets.
"""

import pytest

from repro.api.experiment import available_experiments, experiment_entry


def test_registry_covers_every_paper_artifact():
    paper_artifacts = {
        "table1", "fig05", "fig06", "fig07", "fig13", "fig14", "fig15",
        "fig16", "fig17", "fig18", "fig19", "fig20", "fig21",
    }
    extensions = {
        "calibration", "energy", "batch-sensitivity", "ablations",
        "fidelity", "cache-sensitivity", "cache-hierarchy",
        "depth-sensitivity",
        "shard-scaling", "host-scaling", "gids-vs-isp", "service-traffic",
        "fault-sweep",
    }
    assert set(available_experiments()) == paper_artifacts | extensions


def test_table1(quick_outcome):
    found = quick_outcome("table1")
    assert len(found.result["paper"]) == 5
    assert len(found.result["instances"]) == 5
    # paper Table I: large-scale Reddit has ~1445 average degree
    reddit = found.result["instances"]["reddit"]
    assert reddit["large_avg_degree"] == pytest.approx(1445, rel=0.05)
    assert "reddit" in found.rendered and "602" in found.rendered


def test_fig05_miss_rate_band(quick_outcome):
    found = quick_outcome("fig05")
    assert 0.35 < found.result["avg_miss_rate"] < 0.9
    assert 0.05 < found.result["avg_bw_utilization"] < 0.5
    assert "LLC miss rate" in found.rendered


def test_fig06_mmap_much_slower(quick_outcome):
    found = quick_outcome("fig06")
    # at quick scale the gap compresses; the full-scale experiment
    # lands in the paper's 9.8x zone
    assert found.result["avg_slowdown"] > 3.0
    for data in found.result["per_dataset"].values():
        mmap = data["results"]["ssd-mmap"].phase_means
        assert mmap["neighbor_sampling"] > mmap["gnn_training"]
    assert "slower e2e" in found.rendered


def test_fig07_idle_gap(quick_outcome):
    for idle in quick_outcome("fig07").result["per_dataset"].values():
        assert idle["ssd-mmap"] > idle["dram"] + 0.3


def test_fig13_shape_preserved(quick_outcome):
    for d in quick_outcome("fig13").result["per_dataset"].values():
        assert d["factors"]["densified"]
        assert d["shape_similarity"] > 0.7


def test_fig14_speedup_bands(quick_outcome):
    fig14 = quick_outcome("fig14").result
    assert 1.0 < fig14["sw_avg"] < 4.0
    assert 5.0 < fig14["hwsw_avg"] < 20.0
    assert fig14["data_movement_reduction_avg"] > 3.0


def test_fig15_monotone_collapse(quick_outcome):
    fig15 = quick_outcome("fig15").result
    grans = fig15["granularities"]
    for data in fig15["per_dataset"].values():
        perf = data["relative_performance"]
        assert perf[grans[0]] == pytest.approx(1.0)
        assert perf[grans[-1]] < 0.95
        values = [perf[g] for g in grans]
        assert all(b <= a * 1.02 for a, b in zip(values, values[1:]))


def test_fig16_multi_worker_speedups(quick_outcome):
    fig16 = quick_outcome("fig16").result
    assert fig16["hwsw_avg"] > 1.5
    assert fig16["hwsw_avg"] > fig16["sw_avg"] * 0.9


def test_fig17_declining_trend(quick_outcome):
    found = quick_outcome("fig17")
    for speedups in found.result["per_dataset"].values():
        assert speedups[1] > speedups[8] > speedups[12]
    assert "declines" in found.rendered


def test_fig18_design_ordering(quick_outcome):
    fig18 = quick_outcome("fig18").result
    for data in fig18["per_dataset"].values():
        e = data["elapsed"]
        assert e["dram"] <= e["smartsage-oracle"] * 1.05
        assert e["smartsage-hwsw"] < e["smartsage-sw"]
        assert e["smartsage-sw"] < e["ssd-mmap"]
        assert e["pmem"] < e["smartsage-hwsw"]
    assert fig18["hwsw_vs_mmap_avg"] > 1.5


def test_fig19_transfer_dominates(quick_outcome):
    for d in quick_outcome("fig19").result["per_dataset"].values():
        assert d["transfer_fraction"] > 0.8
        # FPGA CSD must NOT decisively beat SW (paper's conclusion)
        assert d["fpga_vs_sw"] < 1.5


def test_fig20_saint_speedup(quick_outcome):
    assert quick_outcome("fig20").result["hwsw_avg_speedup"] > 1.5


def test_fig21_rate_trend(quick_outcome):
    for speedups in quick_outcome("fig21").result["per_dataset"].values():
        assert speedups[0.5]["hwsw"] > speedups[2.0]["hwsw"]


def test_calibration_runs(quick_outcome):
    """Calibration reports the three headline figures' own scalars."""
    found = quick_outcome("calibration")
    fig14 = quick_outcome("fig14").result
    fig16 = quick_outcome("fig16").result
    fig18 = quick_outcome("fig18").result
    expected = {
        f"fig14_{key}": fig14[key]
        for key in (
            "sw_avg", "hwsw_avg", "hwsw_max",
            "data_movement_reduction_avg",
        )
    }
    expected.update(
        (f"fig16_{key}", fig16[key])
        for key in ("hwsw_avg", "hwsw_max", "sw_avg")
    )
    expected.update(
        (f"fig18_{key}", fig18[key])
        for key in (
            "hwsw_vs_mmap_avg", "hwsw_vs_mmap_max", "sw_vs_mmap_avg",
            "pmem_vs_dram_avg", "oracle_frac_of_dram_avg",
            "oracle_frac_of_pmem_avg",
        )
    )
    (record,) = found.records
    assert record.metrics == expected
    assert "fig14" in found.rendered and "fig18" in found.rendered


def test_every_experiment_renders(quick_suite):
    for campaign in quick_suite.values():
        for name, found in campaign.outcomes.items():
            assert found.ok, (name, found.error)
            if experiment_entry(name).render is not None:
                assert found.rendered, name
