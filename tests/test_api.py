"""Tests for the declarative session API: registry, specs, Session."""

import dataclasses
import json

import pytest

from repro.api import (
    RunSpec,
    Session,
    SystemSpec,
    available_designs,
    design_entry,
    is_ssd_backed,
    register_design,
    unregister_design,
)
from repro.api.validation import PIPELINE_COUNTS, TOPOLOGY_COUNTS
from repro.core import DESIGNS, SSD_DESIGNS, TrainingSystem, build_system
from repro.core.sampling_engines import DirectIOSamplingEngine
from repro.errors import ConfigError
from repro.experiments.common import ExperimentConfig, scaled_instance
from repro.pipeline import run_pipeline

CFG = ExperimentConfig(edge_budget=2e5, batch_size=16, n_workloads=3)


@pytest.fixture(scope="module")
def dataset():
    return scaled_instance("protein-pi", CFG)


def small_spec(design="ssd-mmap", **kwargs):
    defaults = dict(
        dataset="protein-pi",
        edge_budget=2e5,
        batch_size=16,
        n_workloads=3,
        n_batches=4,
        n_workers=2,
        system=SystemSpec(design=design),
    )
    defaults.update(kwargs)
    return RunSpec(**defaults)


# -- registry -----------------------------------------------------------


def test_registry_contains_all_paper_designs():
    names = available_designs()
    for design in DESIGNS:
        assert design in names


def test_registry_ssd_backing_matches_legacy_tuple():
    for design in DESIGNS:
        assert is_ssd_backed(design) == (design in SSD_DESIGNS)


def test_registry_unknown_design_rejected():
    with pytest.raises(ConfigError, match="unknown design"):
        design_entry("floppy-disk")


def test_registry_duplicate_rejected():
    with pytest.raises(ConfigError, match="already registered"):
        @register_design("dram")
        def clone(ctx):  # pragma: no cover - never built
            raise AssertionError


def test_registry_replace_allows_override(dataset):
    original = design_entry("dram").builder
    try:
        @register_design("dram", replace=True)
        def patched(ctx):
            return original(ctx)

        assert design_entry("dram").builder is patched
        assert build_system(SystemSpec("dram"), dataset).design == "dram"
    finally:
        register_design("dram", replace=True)(original)


def test_registry_bad_name_rejected():
    with pytest.raises(ConfigError):
        register_design("")
    with pytest.raises(ConfigError):
        register_design(None)


def test_eighth_design_registers_without_touching_core(dataset):
    """A plug-in design builds through both build_system and Session."""

    @register_design("test-plugin", ssd_backed=True,
                     description="direct I/O clone for tests")
    def build_plugin(ctx):
        ssd = ctx.make_ssd()
        sw = ctx.host_software()
        return ctx.make_system(
            ssd=ssd,
            sampling_engine=DirectIOSamplingEngine(
                ssd, ctx.edge_layout, ctx.edge_scratchpad(), sw
            ),
            feature_engine=ctx.dram_feature_engine(),
        )

    try:
        assert "test-plugin" in available_designs()
        system = build_system(SystemSpec("test-plugin"), dataset)
        assert isinstance(system, TrainingSystem)
        assert system.design == "test-plugin"
        assert system.uses_ssd
        session = Session(small_spec("test-plugin"), dataset=dataset)
        result = session.run()
        assert result.design == "test-plugin"
        assert result.elapsed_s > 0
    finally:
        unregister_design("test-plugin")
    with pytest.raises(ConfigError):
        build_system(SystemSpec("test-plugin"), dataset)


def test_builder_must_return_training_system(dataset):
    @register_design("test-broken")
    def build_broken(ctx):
        return "not a system"

    try:
        with pytest.raises(ConfigError, match="expected TrainingSystem"):
            build_system(SystemSpec("test-broken"), dataset)
    finally:
        unregister_design("test-broken")


# -- spec round-trips ---------------------------------------------------


def test_system_spec_roundtrip():
    spec = SystemSpec(
        design="smartsage-hwsw",
        fanouts=(25, 10),
        granularity=8,
        host_cache_frac=0.2,
        hardware={"ssd": {"firmware_io_s": 12e-6}},
    )
    blob = json.loads(json.dumps(spec.to_dict()))
    assert SystemSpec.from_dict(blob) == spec


def test_run_spec_json_roundtrip(tmp_path):
    spec = small_spec(
        "smartsage-oracle",
        mode="analytic",
        checkpoint_every=2,
        checkpoint_bytes=1 << 20,
    )
    path = tmp_path / "spec.json"
    spec.to_json(str(path))
    again = RunSpec.from_json(str(path))
    assert again == spec
    assert again.system.design == "smartsage-oracle"


def test_roundtripped_spec_builds_equivalent_system(dataset):
    spec = small_spec("smartsage-hwsw")
    again = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    s1 = Session(spec, dataset=dataset).build()
    s2 = Session(again, dataset=dataset).build()
    assert s1.design == s2.design
    assert type(s1.sampling_engine) is type(s2.sampling_engine)
    assert type(s1.feature_engine) is type(s2.feature_engine)
    assert (
        s1.ssd.page_buffer.capacity
        == s2.ssd.page_buffer.capacity
    )


def test_spec_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="unknown RunSpec field"):
        RunSpec.from_dict({"dataset": "reddit", "bogus": 1})
    with pytest.raises(ConfigError, match="unknown SystemSpec field"):
        SystemSpec.from_dict({"design": "dram", "wheels": 4})


def test_spec_validation_errors_name_the_value():
    with pytest.raises(ConfigError, match="unknown dataset"):
        Session(small_spec(dataset="imaginary"))
    with pytest.raises(ConfigError, match="-0.5"):
        Session(small_spec(system=SystemSpec(host_cache_frac=-0.5)))
    with pytest.raises(ConfigError, match="sampler"):
        Session(small_spec(sampler="bfs"))
    with pytest.raises(ConfigError, match="mode"):
        Session(small_spec(mode="magic"))
    with pytest.raises(ConfigError, match="warmup"):
        Session(small_spec(warmup_batches=3, n_workloads=3))


def test_hardware_overrides_applied_and_validated():
    spec = SystemSpec(hardware={"workload": {"hidden_dim": 64}})
    assert spec.build_hardware().workload.hidden_dim == 64
    with pytest.raises(ConfigError, match="unknown hardware section"):
        SystemSpec(hardware={"warp-drive": {}}).build_hardware()
    with pytest.raises(ConfigError, match="unknown hardware field"):
        SystemSpec(hardware={"ssd": {"spin_rpm": 7200}}).build_hardware()


# -- sizing validation in the system builder -----------------------------


@pytest.mark.parametrize("kwargs", [
    {"host_cache_frac": -0.1},
    {"host_cache_frac": 1.5},
    {"host_cache_frac": float("nan")},
    {"host_cache_frac": "0.5"},
    {"page_buffer_frac": -0.01},
    {"page_buffer_frac": 2.0},
    {"features_in_dram": "yes"},
    {"design": "smartsage-sw", "granularity": 0},
    {"design": "smartsage-sw", "granularity": -4},
    {"fanouts": (0, -1)},
    {"n_shards": True},
    {"n_shards": 2.5},
])
def test_build_system_rejects_bad_sizing(dataset, kwargs):
    """``build_system`` runs ``SystemSpec.validate``, the one check of
    every sizing knob, before any component is built."""
    with pytest.raises(ConfigError):
        build_system(SystemSpec(**{"design": "ssd-mmap", **kwargs}), dataset)


def test_build_system_accepts_boundary_fractions(dataset):
    for frac in (0.0, 1.0):
        system = build_system(
            SystemSpec("ssd-mmap", host_cache_frac=frac), dataset
        )
        assert system.design == "ssd-mmap"


def test_build_system_applies_spec_hardware_without_hw(dataset):
    """With no ``hw``, the build uses the spec's hardware overrides."""
    spec = SystemSpec("ssd-mmap", hardware={"ssd": {"lba_bytes": 8192}})
    system = build_system(spec, dataset)
    assert system.hw.ssd.lba_bytes == 8192
    assert system.ssd.hw.ssd.lba_bytes == 8192
    assert system.feature_layout.lba_bytes == 8192
    assert build_system(SystemSpec("ssd-mmap"), dataset).hw.ssd.lba_bytes \
        == 4096


# -- build_system vs Session.build --------------------------------------


def test_build_system_equivalent_for_all_designs(dataset):
    """build_system matches Session.build for all seven designs."""
    for design in DESIGNS:
        legacy = build_system(
            SystemSpec(design, fanouts=(25, 10)), dataset
        )
        via_api = Session(
            small_spec(design, system=SystemSpec(
                design=design, fanouts=(25, 10)
            )),
            dataset=dataset,
        ).build()
        assert isinstance(legacy, TrainingSystem)
        assert legacy.design == via_api.design == design
        assert type(legacy.sampling_engine) is type(via_api.sampling_engine)
        assert type(legacy.feature_engine) is type(via_api.feature_engine)
        assert legacy.uses_ssd == via_api.uses_ssd == (
            design in SSD_DESIGNS
        )


# -- pipeline counts: one table, two validators --------------------------


def test_request_rejects_negative_checkpoint_counts(dataset):
    """A hand-built request cannot slip negative checkpoint knobs past
    the run (they are in the shared count table)."""
    session = Session(small_spec(), dataset=dataset)
    for field, bad in (("checkpoint_every", -3), ("checkpoint_bytes", -5)):
        request = dataclasses.replace(session.request, **{field: bad})
        with pytest.raises(ConfigError, match=field):
            run_pipeline(request, system_factory=session.build)


@pytest.mark.parametrize(
    "field", sorted({**PIPELINE_COUNTS, **TOPOLOGY_COUNTS})
)
def test_count_table_checked_by_spec_and_request(dataset, field):
    """Every count is checked at its minimum by RunSpec (pipeline
    counts), SystemSpec (topology counts) and ExecutionRequest (both)."""
    minimum = {**PIPELINE_COUNTS, **TOPOLOGY_COUNTS}[field]
    spec = small_spec()
    if field in TOPOLOGY_COUNTS:
        bad_spec = spec.replace(system=dataclasses.replace(
            spec.system, **{field: minimum - 1}
        ))
    else:
        bad_spec = spec.replace(**{field: minimum - 1})
    with pytest.raises(ConfigError, match=field):
        bad_spec.validate()
    request = Session(spec, dataset=dataset).request
    for bad in (minimum - 1, 2.5, True):
        with pytest.raises(ConfigError, match=field):
            dataclasses.replace(request, **{field: bad}).validate()
    assert dataclasses.replace(request, **{field: minimum}).validate()


# -- Session ------------------------------------------------------------


def test_session_end_to_end_from_json_dict(dataset):
    blob = json.loads(small_spec("smartsage-hwsw").to_json())
    session = Session.from_spec(RunSpec.from_dict(blob), dataset=dataset)
    result = session.run()
    assert result.design == "smartsage-hwsw"
    assert result.n_batches == 4
    assert result.elapsed_s > 0
    assert 0.0 <= result.gpu_idle_fraction <= 1.0


def test_session_accepts_plain_dict(dataset):
    session = Session.from_spec(
        small_spec().to_dict(), dataset=dataset
    )
    assert session.spec.system.design == "ssd-mmap"


def test_session_rejects_non_spec():
    with pytest.raises(ConfigError, match="RunSpec"):
        Session("smartsage-hwsw")


def test_session_shares_state_across_designs(dataset):
    session = Session(small_spec(), dataset=dataset)
    mmap = session.build("ssd-mmap")
    isp = session.build("smartsage-hwsw")
    assert mmap.design == "ssd-mmap"
    assert isp.design == "smartsage-hwsw"
    assert session.dataset is dataset
    assert len(session.workloads) == 3


def test_session_compare_speedups(dataset):
    session = Session(small_spec(), dataset=dataset)
    cmp = session.compare(["ssd-mmap", "smartsage-hwsw", "dram"])
    assert set(cmp.results) == {"ssd-mmap", "smartsage-hwsw", "dram"}
    assert cmp.speedup("ssd-mmap") == pytest.approx(1.0)
    assert cmp.speedup("smartsage-hwsw") > 1.0
    assert "speedups vs ssd-mmap" in cmp.table()
    with pytest.raises(ConfigError):
        cmp.speedup("pmem")


def test_session_sweep_keeps_injected_hardware(dataset, monkeypatch):
    """Sweeping a system axis must not silently revert to default hw."""
    from repro.api import session as session_mod
    from repro.config import default_hardware

    hw = default_hardware().replace_in("workload", hidden_dim=96)
    base = Session(small_spec(), dataset=dataset, hw=hw)
    seen = []
    original = Session.__init__

    def spy(self, spec, dataset=None, workloads=None, hw=None):
        seen.append(hw)
        original(self, spec, dataset=dataset, workloads=workloads, hw=hw)

    monkeypatch.setattr(session_mod.Session, "__init__", spy)
    base.sweep("design", ["dram"])
    base.sweep("host_cache_frac", [0.1])
    assert all(point_hw is hw for point_hw in seen)
    seen.clear()
    base.sweep("hardware", [{"workload": {"hidden_dim": 32}}])
    assert seen == [None]  # hardware axis must rebuild hw per point


def test_session_sweep_hardware_axis_regenerates_workloads(dataset):
    session = Session(small_spec(), dataset=dataset)
    pool = session.workloads
    results = session.sweep(
        "hardware", [{"workload": {"hidden_dim": 32}}]
    )
    assert len(results) == 1
    # base session's own pool is untouched by the sweep
    assert session.workloads is pool


def test_design_context_direct_construction(dataset):
    from repro.config import default_hardware
    from repro.core import DesignContext
    from repro.core.feature_engines import DRAMFeatureEngine
    from repro.core.sampling_engines import DRAMSamplingEngine

    ctx = DesignContext(
        spec=SystemSpec(design="hand-built", fanouts=(25, 10)),
        dataset=dataset,
        hw=default_hardware(),
    )
    assert ctx.fanouts == (25, 10)
    system = ctx.make_system(
        sampling_engine=DRAMSamplingEngine(ctx.hw),
        feature_engine=ctx.dram_feature_engine(),
    )
    assert system.design == "hand-built"
    assert isinstance(system.feature_engine, DRAMFeatureEngine)


def test_session_sweep_axis(dataset):
    session = Session(small_spec(), dataset=dataset)
    by_workers = session.sweep("n_workers", [1, 2])
    assert set(by_workers) == {1, 2}
    assert all(r.elapsed_s > 0 for r in by_workers.values())
    by_design = session.sweep("design", ["dram", "pmem"])
    assert by_design["dram"].design == "dram"
    assert by_design["pmem"].design == "pmem"
    with pytest.raises(ConfigError, match="unknown sweep axis"):
        session.sweep("warp_factor", [1])


def test_session_sampling_costs_match_direct_engines(dataset):
    session = Session(small_spec(), dataset=dataset)
    costs = session.sampling_costs(["ssd-mmap", "smartsage-hwsw"])
    assert costs["ssd-mmap"].total_s > costs["smartsage-hwsw"].total_s


def test_run_spec_replace_and_with_design():
    spec = small_spec()
    other = spec.with_design("dram")
    assert other.system.design == "dram"
    assert spec.system.design == "ssd-mmap"  # original untouched
    assert dataclasses.replace(spec) == spec


# -- CLI ----------------------------------------------------------------


def test_cli_designs(capsys):
    from repro.__main__ import main

    assert main(["designs"]) == 0
    out = capsys.readouterr().out
    for design in DESIGNS:
        assert design in out


def test_cli_run_spec(tmp_path, capsys):
    from repro.__main__ import main

    path = tmp_path / "spec.json"
    small_spec("smartsage-sw").to_json(str(path))
    assert main(["run-spec", str(path)]) == 0
    out = capsys.readouterr().out
    assert "smartsage-sw" in out
    assert "throughput" in out


def test_cli_run_spec_compare(tmp_path, capsys):
    from repro.__main__ import main

    path = tmp_path / "spec.json"
    small_spec().to_json(str(path))
    assert main(["run-spec", str(path), "--compare", "dram,pmem"]) == 0
    assert "speedups vs dram" in capsys.readouterr().out


def test_cli_run_spec_bad_file(tmp_path, capsys):
    from repro.__main__ import main

    missing = tmp_path / "nope.json"
    assert main(["run-spec", str(missing)]) == 1
    assert "error" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run-spec", str(bad)]) == 1


@pytest.fixture
def boom_and_fine(monkeypatch):
    """Two registered ad-hoc experiments, ``boom`` failing; ``repro run
    all`` runs just these two."""
    from repro.api.experiment import (
        register_experiment,
        unregister_experiment,
    )
    from repro.experiments import run_all

    def kaput():
        raise RuntimeError("kaput")

    register_experiment("boom", render=lambda result: "")(
        lambda cfg: [kaput]
    )
    register_experiment("fine", render=lambda result: "ok")(
        lambda cfg: [dict]
    )
    monkeypatch.setattr(run_all, "ORDER", ("boom", "fine"))
    try:
        yield
    finally:
        unregister_experiment("boom")
        unregister_experiment("fine")


def test_cli_run_all_propagates_exit_code(boom_and_fine, capsys):
    from repro.__main__ import main

    assert main(["run", "all", "--quick", "--json"]) == 1
    blob = json.loads(capsys.readouterr().out)
    assert blob["campaign"]["n_failures"] == 1
    assert blob["experiments"]["fine"]["status"] == "ok"


def test_run_all_counts_failures(boom_and_fine, capsys):
    from repro.__main__ import main

    assert main(["run", "all"]) == 1
    captured = capsys.readouterr()
    assert "FAILED: boom" in captured.err
    assert "ok" in captured.out


# -- sweep key canonicalization (regression: silent key collisions) ---------


def test_canonical_sweep_key_type_aware_and_stable():
    """1, True, and 1.0 are distinct sweep points (they hash equal and
    compare equal, which used to make them overwrite each other)."""
    from repro.api.session import canonical_sweep_key

    keys = {canonical_sweep_key(v) for v in (1, True, 1.0)}
    assert len(keys) == 3
    # cross-process stable: pure value-derived tuples, no id()/hash()
    assert canonical_sweep_key(1.5) == ("float", "1.5")
    assert canonical_sweep_key({"b": 2, "a": 1}) == canonical_sweep_key(
        {"a": 1, "b": 2}
    )
    assert canonical_sweep_key([1, 2]) == canonical_sweep_key((1, 2))
    assert canonical_sweep_key(None) == ("none",)


def test_sweep_results_distinguishes_equal_keys():
    """Regression: sweeping [1, True, 1.0] keeps three results."""
    from repro.api.session import SweepResults

    results = SweepResults()
    for tag, value in (("int", 1), ("bool", True), ("float", 1.0)):
        results.add(value, tag)
    assert len(results) == 3
    assert results[1] == "int"
    assert results[True] == "bool"
    assert results[1.0] == "float"
    assert list(results) == [1, True, 1.0]
    assert 1 in results and True in results
    with pytest.raises(ConfigError, match="duplicate sweep point"):
        results.add(1, "again")
    with pytest.raises(KeyError):
        results[2]


def test_sweep_rejects_duplicate_points_before_running(
    dataset, monkeypatch
):
    session = Session(small_spec(), dataset=dataset)
    ran = []
    monkeypatch.setattr(
        Session, "run", lambda self, design=None: ran.append(1)
    )
    with pytest.raises(ConfigError, match="duplicate sweep point"):
        session.sweep("n_workers", [1, 2, 1])
    assert ran == []  # fail-fast: no point simulated


def test_sweep_results_lookup_by_unhashable_value(dataset):
    """hardware-override dicts are now first-class sweep keys (the old
    repr() fallback was process-dependent for some types)."""
    session = Session(small_spec(), dataset=dataset)
    override = {"workload": {"hidden_dim": 32}}
    results = session.sweep("hardware", [override])
    assert len(results) == 1
    assert results[override].elapsed_s > 0
    # an equal dict with different key order finds the same point
    assert results[{"workload": {"hidden_dim": 32}}] is results[override]


def test_sweep_keys_iterate_as_original_values(dataset):
    session = Session(small_spec(), dataset=dataset)
    results = session.sweep("n_workers", [1, 2])
    assert set(results) == {1, 2}
    assert {k: r.n_workers for k, r in results.items()} == {1: 1, 2: 2}
