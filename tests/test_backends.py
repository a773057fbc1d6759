"""Tests for the pluggable execution-backend layer (pipeline/backends)."""

import pytest

from repro.api import RunSpec, Session, SystemSpec
from repro.core import build_gpu_model, build_system
from repro.errors import ConfigError
from repro.experiments.common import (
    ExperimentConfig,
    make_workloads,
    scaled_instance,
)
from repro.pipeline import ExecutionRequest, run_pipeline
from repro.pipeline.backends import (
    available_backends,
    backend_entry,
    register_backend,
    unregister_backend,
)
from repro.pipeline.backends.base import PipelineResult

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


# -- registry ---------------------------------------------------------------


def test_builtin_backends_registered():
    names = available_backends()
    for mode in ("event", "analytic", "sharded", "async"):
        assert mode in names
    assert backend_entry("sharded").needs_graph
    assert not backend_entry("event").needs_graph
    assert backend_entry("async").needs_graph is False


def test_register_backend_round_trip():
    @register_backend("null-test", description="noop backend")
    def _plan_null(request):
        return PipelineResult(
            design=request.system.design, mode="null-test",
            n_batches=request.n_batches, n_workers=request.n_workers,
            elapsed_s=1.0, gpu_busy_s=0.0, gpu_idle_fraction=1.0,
        )

    try:
        assert "null-test" in available_backends()
        assert backend_entry("null-test").description == "noop backend"
        with pytest.raises(ConfigError, match="already registered"):
            register_backend("null-test")(lambda request: None)
        register_backend("null-test", replace=True)(_plan_null)
    finally:
        unregister_backend("null-test")
    assert "null-test" not in available_backends()


def test_unknown_mode_lists_registered_backends(setup):
    ds, workloads, gpu = setup
    system = build("dram", ds, workloads)
    with pytest.raises(ConfigError, match="event"):
        run_pipeline(
            ExecutionRequest(
                gpu=gpu, workloads=workloads, n_batches=4, n_workers=1,
                mode="quantum",
            ),
            system=system,
        )


def test_bad_backend_name_rejected():
    with pytest.raises(ConfigError):
        register_backend("")
    with pytest.raises(ConfigError):
        register_backend(None)


# -- event parity -----------------------------------------------------------


def test_event_dispatch_matches_direct_backend_call(setup):
    """run_pipeline(mode='event') is exactly the registered backend."""
    ds, workloads, gpu = setup
    via_dispatch = run_pipeline(
        ExecutionRequest(
            gpu=gpu, workloads=workloads[2:], n_batches=12, n_workers=4,
            mode="event",
        ),
        system=build("ssd-mmap", ds, workloads),
    )
    request = ExecutionRequest(
        system=build("ssd-mmap", ds, workloads), gpu=gpu,
        workloads=workloads[2:], n_batches=12, n_workers=4,
    )
    direct = backend_entry("event").plan(request)
    assert via_dispatch == direct


def test_analytic_dispatches_through_registry(setup):
    ds, workloads, gpu = setup
    result = run_pipeline(
        ExecutionRequest(
            gpu=gpu, workloads=workloads[2:], n_batches=8, n_workers=2,
            mode="analytic",
        ),
        system=build("dram", ds, workloads),
    )
    assert result.mode == "analytic"
    assert result.elapsed_s > 0


# -- sharded backend --------------------------------------------------------


def test_sharded_k1_equals_event(setup):
    """One shard, no partition, no remote reads: identical schedule."""
    ds, workloads, gpu = setup
    for design in ("ssd-mmap", "smartsage-hwsw"):
        event = run_pipeline(
            ExecutionRequest(
                gpu=gpu, workloads=workloads[2:], n_batches=12, n_workers=4,
                mode="event",
            ),
            system=build(design, ds, workloads),
        )
        sharded = run_pipeline(
            ExecutionRequest(
                gpu=gpu, workloads=workloads[2:], n_batches=12, n_workers=4,
                mode="sharded", n_shards=1,
            ),
            system=build(design, ds, workloads),
        )
        assert sharded.elapsed_s == event.elapsed_s
        assert sharded.phase_means == event.phase_means
        assert sharded.gpu_busy_s == event.gpu_busy_s
        assert sharded.n_shards == 1


def test_sharded_scales_sublinearly(setup):
    ds, workloads, gpu = setup

    def tput(k):
        result = run_pipeline(
            ExecutionRequest(
                gpu=gpu, workloads=workloads[2:], n_batches=16, n_workers=4,
                mode="sharded", n_shards=k, graph=ds.graph,
            ),
            system=build("smartsage-sharded", ds, workloads, n_shards=k),
        )
        return result.throughput_batches_per_s, result

    t1, _ = tput(1)
    t2, r2 = tput(2)
    t4, r4 = tput(4)
    # throughput increases with K...
    assert t1 < t2 < t4
    # ...but sub-linearly: cross-shard remote reads eat into scaling
    assert t4 < 4 * t1
    assert r4.backend_stats["cut_fraction"] > r2.backend_stats[
        "cut_fraction"
    ]
    assert r4.backend_stats["remote_bytes"] > 0


def test_sharded_multi_shard_needs_graph(setup):
    ds, workloads, gpu = setup
    with pytest.raises(ConfigError, match="graph"):
        run_pipeline(
            ExecutionRequest(
                gpu=gpu, workloads=workloads[2:], n_batches=8, n_workers=2,
                mode="sharded", n_shards=2,
            ),
            system=build("ssd-mmap", ds, workloads),
        )


def test_sharded_more_shards_than_batches(setup):
    """Empty groups are skipped; every batch still completes."""
    ds, workloads, gpu = setup
    result = run_pipeline(
        ExecutionRequest(
            gpu=gpu, workloads=workloads[2:], n_batches=3, n_workers=2,
            mode="sharded", n_shards=8, graph=ds.graph,
        ),
        system=build("ssd-mmap", ds, workloads),
    )
    assert result.n_batches == 3
    assert result.backend_stats["n_groups"] == 3.0


# -- async backend ----------------------------------------------------------


def test_async_prefetch_depth_monotonicity(setup):
    """Deeper prefetch windows never slow the pipeline down."""
    ds, workloads, gpu = setup
    elapsed = []
    for depth in (1, 2, 4, 8):
        result = run_pipeline(
            ExecutionRequest(
                gpu=gpu, workloads=workloads[2:], n_batches=16, n_workers=4,
                mode="async", prefetch_depth=depth,
            ),
            system=build("ssd-mmap", ds, workloads),
        )
        assert result.mode == "async"
        assert result.backend_stats["prefetch_depth"] == float(depth)
        elapsed.append(result.elapsed_s)
    for shallow, deep in zip(elapsed, elapsed[1:]):
        assert deep <= shallow * (1 + 1e-9)
    # depth 1 serializes preparation: strictly slower than a real window
    assert elapsed[-1] < elapsed[0]


def test_async_completes_all_batches(setup):
    ds, workloads, gpu = setup
    result = run_pipeline(
        ExecutionRequest(
            gpu=gpu, workloads=workloads[2:], n_batches=9, n_workers=3,
            mode="async", prefetch_depth=2,
        ),
        system=build("dram", ds, workloads),
    )
    assert result.n_batches == 9
    assert set(result.phase_means) >= {
        "neighbor_sampling", "feature_lookup", "cpu_to_gpu",
        "gnn_training",
    }


# -- spec / session integration ---------------------------------------------


def small_spec(**kwargs):
    base = dict(
        dataset="reddit", edge_budget=3e5, batch_size=24,
        n_workloads=5, n_batches=8, n_workers=2,
    )
    base.update(kwargs)
    return RunSpec(**base)


def test_runspec_accepts_new_modes():
    for mode in ("sharded", "async"):
        spec = small_spec(mode=mode)
        assert spec.validate().mode == mode


def test_runspec_mode_error_names_backends():
    with pytest.raises(ConfigError, match="sharded"):
        small_spec(mode="magic").validate()


def test_systemspec_shard_fields_validated():
    SystemSpec(n_shards=4, partition="degree-balanced").validate()
    with pytest.raises(ConfigError, match="n_shards"):
        SystemSpec(n_shards=0).validate()
    with pytest.raises(ConfigError, match="partition"):
        SystemSpec(partition="metis").validate()


def test_runspec_shard_round_trip():
    spec = small_spec(
        mode="sharded",
        prefetch_depth=3,
        system=SystemSpec(
            design="smartsage-sharded", n_shards=4,
            partition="degree-balanced",
        ),
    )
    again = RunSpec.from_dict(spec.to_dict())
    assert again == spec
    assert again.system.n_shards == 4
    assert again.prefetch_depth == 3


def test_session_sweeps_shard_counts():
    spec = small_spec(
        mode="sharded",
        n_batches=12, n_workers=4,
        system=SystemSpec(design="smartsage-sharded"),
    )
    session = Session(spec)
    results = session.sweep("n_shards", [1, 2, 4])
    tputs = [
        results[k].throughput_batches_per_s for k in (1, 2, 4)
    ]
    assert tputs[0] < tputs[1] < tputs[2]
    assert results[4].n_shards == 4


def test_session_runs_async_mode():
    spec = small_spec(mode="async", prefetch_depth=4)
    result = Session(spec).run()
    assert result.mode == "async"
    assert result.n_batches == 8


def test_async_is_the_engine_prefetch_preset():
    from repro.pipeline import engine

    assert engine.PRESETS["async"] == (engine.PREFETCH,)
    assert backend_entry("async").plan.__module__ == "repro.pipeline.engine"


def test_session_request_is_built_once_from_the_spec():
    from repro.pipeline import ExecutionRequest

    session = Session(small_spec(
        mode="async", prefetch_depth=3, qp_depth=8,
        system=SystemSpec(n_shards=2, fabric="flat"),
    ))
    request = session.request
    assert isinstance(request, ExecutionRequest)
    assert session.request is request
    assert (request.mode, request.prefetch_depth, request.qp_depth) == (
        "async", 3, 8
    )
    assert (request.n_shards, request.fabric) == (2, "flat")
    assert request.graph is session.dataset.graph
    assert request.workloads == session.workloads[2:]
    assert request.system is None
    session.run("dram")
    assert request.system is None  # each run binds a copy


# -- crashed simulated processes --------------------------------------------


def test_drive_reraises_a_failed_process():
    from repro.pipeline.backends.base import drive
    from repro.sim.engine import Simulator

    sim = Simulator()

    def healthy():
        yield sim.timeout(2.0)

    def crashing():
        yield sim.timeout(1.0)
        raise RuntimeError("worker crashed")

    procs = [sim.process(healthy()), sim.process(crashing())]
    with pytest.raises(RuntimeError, match="worker crashed"):
        drive(sim, procs)


def _crash_on_third_sample(monkeypatch):
    """Make every session-built system's 3rd sampling call raise."""
    build_system_ = Session.build
    calls = []

    def build(self, design=None):
        system = build_system_(self, design)
        engine = system.sampling_engine
        batch_process = engine.batch_process

        def crashing(runtime, workload):
            calls.append(workload)
            if len(calls) == 3:
                raise RuntimeError("sampler crashed")
            yield from batch_process(runtime, workload)

        engine.batch_process = crashing
        return system

    monkeypatch.setattr(Session, "build", build)


@pytest.mark.parametrize("mode", ["event", "async"])
def test_session_run_fails_when_a_producer_crashes(monkeypatch, mode):
    _crash_on_third_sample(monkeypatch)
    with pytest.raises(RuntimeError, match="sampler crashed"):
        Session(small_spec(mode=mode)).run()


def test_sampling_throughput_fails_when_a_sampler_crashes(monkeypatch):
    _crash_on_third_sample(monkeypatch)
    with pytest.raises(RuntimeError, match="sampler crashed"):
        Session(small_spec()).sampling_throughput(n_batches=8)
