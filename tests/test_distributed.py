"""Tests for the distributed subsystem (repro.distributed) and the
``distributed`` execution backend."""

import numpy as np
import pytest

from repro.api import RunSpec, Session, SystemSpec
from repro.core import build_gpu_model
from repro.distributed import (
    host_workload_traffic,
    model_gradient_bytes,
    plan_hosts,
)
from repro.errors import ConfigError
from repro.experiments.common import (
    ExperimentConfig,
    make_workloads,
    scaled_instance,
)
from repro.graph.csr import CSRGraph
from repro.pipeline.backends import available_backends, backend_entry

CFG = ExperimentConfig(edge_budget=3e5, batch_size=24, n_workloads=5)


@pytest.fixture(scope="module")
def setup():
    ds = scaled_instance("reddit", CFG)
    workloads = make_workloads(ds, CFG)
    return ds, workloads


def spec(**kwargs):
    base = dict(
        dataset="reddit", edge_budget=3e5, batch_size=24,
        n_workloads=5, n_batches=8, n_workers=2,
    )
    base.update(kwargs)
    return RunSpec(**base)


# -- host partition planner -------------------------------------------------


def test_plan_hosts_is_hierarchical(setup):
    ds, _ = setup
    plan = plan_hosts(ds.graph, 4, shards_per_host=2)
    assert plan.n_groups == 8
    assert plan.device_part.owner.max() < 8
    # host owner is exactly the coarsening of the device owner
    assert np.array_equal(
        plan.host_part.owner, plan.device_part.owner // 2
    )
    assert plan.host_of_group(0) == 0
    assert plan.host_of_group(5) == 2
    with pytest.raises(ConfigError):
        plan.host_of_group(8)


def test_plan_hosts_single_host_is_all_local(setup):
    ds, _ = setup
    plan = plan_hosts(ds.graph, 1, shards_per_host=4)
    assert plan.host_part.cut_edges == 0
    assert plan.halo_nodes == 0
    assert plan.shuffle_bytes == 0
    assert plan.stats()["host_cut_fraction"] == 0.0
    # device partition is the same cut the sharded backend would use
    from repro.graph.partition import partition_graph

    ref = partition_graph(ds.graph, 4, method="edge-cut")
    assert np.array_equal(plan.device_part.owner, ref.owner)


def test_plan_hosts_shuffle_matrix_conserves_payload(setup):
    ds, _ = setup
    row_bytes = 64
    plan = plan_hosts(ds.graph, 4, row_bytes=row_bytes, edge_id_bytes=8)
    total_payload = int(
        ds.graph.degrees().astype(np.int64).sum() * 8
        + ds.graph.num_nodes * row_bytes
    )
    assert int(plan.shuffle_matrix.sum()) == total_payload
    assert plan.shuffle_matrix.min() >= 0
    assert plan.shuffle_bytes == int(
        plan.shuffle_matrix.sum() - np.trace(plan.shuffle_matrix)
    )
    assert plan.shuffle_bytes > 0
    # deterministic: same inputs, same plan
    again = plan_hosts(ds.graph, 4, row_bytes=row_bytes, edge_id_bytes=8)
    assert np.array_equal(plan.shuffle_matrix, again.shuffle_matrix)
    assert np.array_equal(plan.device_part.owner, again.device_part.owner)


def test_plan_hosts_validation(setup):
    ds, _ = setup
    with pytest.raises(ConfigError, match="n_hosts"):
        plan_hosts(ds.graph, 0)
    with pytest.raises(ConfigError, match="shards_per_host"):
        plan_hosts(ds.graph, 2, shards_per_host=0)
    with pytest.raises(ConfigError):
        plan_hosts(ds.graph, 2, method="metis")


def test_plan_hosts_degenerate_graph():
    g = CSRGraph.from_adjacency([[]])
    plan = plan_hosts(g, 4)
    assert plan.host_part.cut_edges == 0
    assert plan.shuffle_matrix.shape == (4, 4)


# -- per-workload traffic ---------------------------------------------------


def test_host_workload_traffic_matches_manual_recount(setup):
    ds, workloads = setup
    row_bytes, edge_id_bytes = 256, 8
    plan = plan_hosts(ds.graph, 4, row_bytes=row_bytes,
                      edge_id_bytes=edge_id_bytes)
    host = 1
    traffic = host_workload_traffic(
        plan, ds.graph, workloads, host, row_bytes, edge_id_bytes
    )
    assert len(traffic) == len(workloads)
    owner = plan.host_part.owner
    for w, tr in zip(workloads, traffic):
        # own-host columns are always zero
        assert tr.sampling_req[host] == 0
        assert tr.pull_resp[host] == 0
        targets = np.asarray(w.all_targets(), dtype=np.int64)
        inputs = np.asarray(w.input_nodes, dtype=np.int64)
        for dst in range(4):
            if dst == host:
                continue
            remote_t = targets[owner[targets] == dst]
            assert tr.sampling_req[dst] == remote_t.size * edge_id_bytes
            assert tr.sampling_resp[dst] == int(
                ds.graph.degrees(remote_t).sum()
            ) * edge_id_bytes
            remote_i = int((owner[inputs] == dst).sum())
            assert tr.pull_req[dst] == remote_i * edge_id_bytes
            assert tr.pull_resp[dst] == remote_i * row_bytes
        assert set(tr.destinations()) <= {0, 2, 3}
        assert tr.total_bytes == int(
            tr.sampling_req.sum() + tr.sampling_resp.sum()
            + tr.pull_req.sum() + tr.pull_resp.sum()
        )


def test_gradient_bytes_counts_sage_weights(setup):
    ds, _ = setup
    gpu = build_gpu_model(ds, CFG.hw)
    got = model_gradient_bytes(gpu, 2, 4)
    params = (
        (2 * gpu.feature_dim) * gpu.hidden_dim + gpu.hidden_dim
        + (2 * gpu.hidden_dim) * gpu.hidden_dim + gpu.hidden_dim
        + gpu.hidden_dim * gpu.num_classes + gpu.num_classes
    )
    assert got == params * 4
    # deeper model carries more gradient
    assert model_gradient_bytes(gpu, 3, 4) > got


# -- spec-time validation (satellite: no deep IndexErrors) ------------------


def test_spec_validation_names_offending_field():
    with pytest.raises(ConfigError, match="n_shards"):
        spec(system=SystemSpec(n_shards=0)).validate()
    with pytest.raises(ConfigError, match="n_hosts"):
        spec(system=SystemSpec(n_hosts=-2)).validate()
    with pytest.raises(ConfigError, match="fabric"):
        spec(system=SystemSpec(fabric="torus")).validate()
    with pytest.raises(ConfigError, match="partition"):
        spec(system=SystemSpec(partition="metis")).validate()


def test_request_validation_rejects_non_integral_counts(setup):
    from repro.pipeline import ExecutionRequest, run_pipeline

    ds, workloads = setup
    gpu = build_gpu_model(ds, CFG.hw)
    from repro.core import build_system

    system = build_system(
        SystemSpec("ssd-mmap", fanouts=CFG.fanouts), ds, hw=CFG.hw
    )
    for bad, field in [
        (dict(n_shards=0), "n_shards"),
        (dict(n_shards=2.5), "n_shards"),
        (dict(n_shards=True), "n_shards"),
        (dict(n_hosts=0), "n_hosts"),
        (dict(n_hosts="two"), "n_hosts"),
        (dict(fabric="mesh"), "fabric"),
    ]:
        with pytest.raises(ConfigError, match=field):
            run_pipeline(
                ExecutionRequest(
                    gpu=gpu, workloads=workloads, n_batches=4, n_workers=2,
                    mode="event", **bad,
                ),
                system=system,
            )
    # numpy integers are fine
    result = run_pipeline(
        ExecutionRequest(
            gpu=gpu, workloads=workloads, n_batches=4, n_workers=2,
            mode="event", n_shards=np.int64(1), n_hosts=np.int64(1),
        ),
        system=system,
    )
    assert result.n_batches == 4


# -- the distributed backend ------------------------------------------------


def test_distributed_backend_registered():
    names = available_backends()
    assert "distributed" in names
    assert "distributed-analytic" in names
    assert backend_entry("distributed").needs_graph
    assert backend_entry("distributed-analytic").needs_graph


def test_distributed_multi_host_generates_traffic():
    results = {}
    for k in (1, 2, 4):
        results[k] = Session(spec(
            mode="distributed",
            n_batches=12,
            system=SystemSpec(design="ssd-mmap", n_hosts=k),
        )).run()
    r1, r2, r4 = results[1], results[2], results[4]
    # single host: all network counters zero, no shuffle either
    assert r1.backend_stats["net_bytes"] == 0.0
    assert r1.backend_stats.get("shuffle_bytes", 0.0) == 0.0
    # every class grows with host count
    for cls in ("sampling_rpc", "feature_pull", "allreduce"):
        key = f"net_{cls}_bytes"
        assert 0.0 < r2.backend_stats[key] < r4.backend_stats[key]
    assert r2.backend_stats["shuffle_bytes"] > 0.0
    assert r2.backend_stats["host_cut_fraction"] < r4.backend_stats[
        "host_cut_fraction"
    ]
    assert r2.backend_stats["net_rpc_calls"] > 0.0
    # allreduce stalls show up as a phase and grad bytes are reported
    assert r2.phase_means["grad_allreduce"] > 0.0
    assert r2.backend_stats["grad_bytes"] > 0.0
    # more hosts still means more aggregate throughput on this workload
    assert r4.elapsed_s < r1.elapsed_s


@pytest.mark.parametrize("n_hosts", [1, 2, 4])
def test_distributed_des_and_analytic_agree_on_bytes(n_hosts):
    system = SystemSpec(design="ssd-mmap", n_hosts=n_hosts, n_shards=2)
    des = Session(spec(mode="distributed", system=system)).run()
    ana = Session(spec(mode="distributed-analytic", system=system)).run()
    for key in (
        "net_sampling_rpc_bytes", "net_feature_pull_bytes",
        "net_allreduce_bytes", "net_bytes", "net_messages",
        "remote_bytes", "shuffle_bytes", "host_cut_fraction",
    ):
        assert des.backend_stats.get(key, 0.0) == ana.backend_stats.get(
            key, 0.0
        ), key
    assert ana.mode == "distributed-analytic"
    assert ana.elapsed_s > 0.0


def test_distributed_fabric_topology_changes_timing_not_bytes():
    base = spec(mode="distributed", n_batches=12)
    rack = Session(base.replace(
        system=SystemSpec(design="ssd-mmap", n_hosts=8, fabric="rack")
    )).run()
    flat = Session(base.replace(
        system=SystemSpec(design="ssd-mmap", n_hosts=8, fabric="flat")
    )).run()
    assert rack.backend_stats["net_bytes"] == flat.backend_stats[
        "net_bytes"
    ]
    # the oversubscribed rack fabric can only be slower
    assert rack.elapsed_s >= flat.elapsed_s


def test_distributed_more_groups_than_batches():
    result = Session(spec(
        mode="distributed", n_batches=3,
        system=SystemSpec(design="ssd-mmap", n_hosts=2, n_shards=4),
    )).run()
    assert result.n_batches == 3
    assert result.backend_stats["n_groups"] == 3.0
    assert result.backend_stats["n_hosts"] == 2.0
