"""Tests for the Campaign API: registry, records, cache, executor, CLI."""

import json
import threading
from functools import partial

import pytest

from repro.api import (
    Campaign,
    CampaignSpec,
    ContentCache,
    RunRecord,
    available_experiments,
    experiment_entry,
    experiments_with_tag,
    register_experiment,
    run_experiment,
    unregister_experiment,
)
from repro.api.artifacts import (
    records_from_csv,
    records_from_json,
    records_to_csv,
    records_to_json,
)
from repro.api.cache import activated, cached, spec_key
from repro.errors import ConfigError
from repro.experiments.common import ExperimentConfig, scaled_instance

#: tiny configuration so campaign tests stay fast
CFG = ExperimentConfig(edge_budget=1.5e5, batch_size=16, n_workloads=3)

PAPER_EXPERIMENTS = (
    "table1", "fig05", "fig06", "fig07", "fig13", "fig14", "fig15",
    "fig16", "fig17", "fig18", "fig19", "fig20", "fig21",
)
EXTENSION_EXPERIMENTS = (
    "calibration", "energy", "batch-sensitivity", "ablations",
    "fidelity", "cache-sensitivity", "cache-hierarchy",
    "depth-sensitivity",
    "shard-scaling", "host-scaling", "gids-vs-isp", "service-traffic",
    "fault-sweep",
)


# -- synthetic experiments -------------------------------------------------


def _unit(dataset_name, cfg):
    inst = scaled_instance(dataset_name, cfg)
    return dataset_name, {
        "nodes": float(inst.num_nodes),
        "edges": float(inst.num_edges),
    }


def _collect(cfg, outputs):
    per_dataset = dict(outputs)
    return {
        "per_dataset": per_dataset,
        "total_nodes": sum(
            v["nodes"] for v in per_dataset.values()
        ),
    }


@pytest.fixture
def synthetic():
    """Register two cheap synthetic experiments; clean up afterwards."""
    names = ("synthetic-a", "synthetic-b")
    for name in names:
        register_experiment(
            name,
            figure="synthetic",
            tags=("synthetic",),
            collect=_collect,
            render=lambda result: f"nodes={result['total_nodes']:.0f}",
        )(
            lambda cfg: [
                partial(_unit, d, cfg)
                for d in ("protein-pi", "reddit")
            ]
        )
    try:
        yield names
    finally:
        for name in names:
            unregister_experiment(name)


@pytest.fixture
def failing():
    def boom():
        raise RuntimeError("kaput")

    register_experiment(
        "synthetic-fail", tags=("synthetic",)
    )(lambda cfg: [boom])
    try:
        yield "synthetic-fail"
    finally:
        unregister_experiment("synthetic-fail")


# -- experiment registry ---------------------------------------------------


def test_registry_lists_all_paper_experiments():
    names = available_experiments()
    for name in PAPER_EXPERIMENTS + EXTENSION_EXPERIMENTS:
        assert name in names


def test_registry_metadata():
    entry = experiment_entry("fig14")
    assert entry.figure == "Figure 14"
    assert "paper" in entry.tags
    assert entry.render is not None
    assert entry.description
    assert "fig14" in experiments_with_tag("paper")
    assert set(experiments_with_tag("extension")) == set(
        EXTENSION_EXPERIMENTS
    )


def test_registry_unknown_experiment():
    with pytest.raises(ConfigError, match="unknown experiment"):
        experiment_entry("fig99")


def test_registry_duplicate_rejected(synthetic):
    with pytest.raises(ConfigError, match="already registered"):
        register_experiment("synthetic-a")(lambda cfg: [])


def test_run_experiment_serial(synthetic):
    result = run_experiment("synthetic-a", CFG)
    assert result.name == "synthetic-a"
    assert set(result.result["per_dataset"]) == {"protein-pi", "reddit"}
    assert result.rendered.startswith("nodes=")
    # default (standard) record extraction: 2 per-dataset + 1 summary
    assert len(result.records) == 3


# -- RunRecord + artifacts -------------------------------------------------


def test_run_record_round_trip():
    record = RunRecord(
        experiment="fig14",
        dataset="reddit",
        design="smartsage-hwsw",
        params={"granularity": 4},
        metrics={"speedup": 9.5},
        provenance={"config_digest": "abc"},
    )
    again = RunRecord.from_dict(
        json.loads(json.dumps(record.to_dict()))
    )
    assert again == record


def test_run_record_rejects_bad_metrics():
    with pytest.raises(ConfigError, match="must be numeric"):
        RunRecord(experiment="x", metrics={"oops": "nan-string"})
    with pytest.raises(ConfigError, match="non-empty string"):
        RunRecord(experiment="")
    with pytest.raises(ConfigError, match="unknown RunRecord field"):
        RunRecord.from_dict({"experiment": "x", "bogus": 1})


def test_records_csv_round_trip():
    records = [
        RunRecord(
            experiment="fig15",
            dataset="reddit",
            design="smartsage-hwsw",
            params={"granularity": 8},
            metrics={"relative_performance": 0.75, "batch_ms": 1.25},
        ),
        RunRecord(experiment="fig15", metrics={"avg": 3.0}),
    ]
    text = records_to_csv(records)
    again = records_from_csv(text)
    assert len(again) == 2
    for a, b in zip(records, again):
        assert a.experiment == b.experiment
        assert a.dataset == b.dataset
        assert a.design == b.design
        assert a.params == b.params
        assert a.metrics == pytest.approx(b.metrics)


def test_records_json_round_trip():
    records = [
        RunRecord(
            experiment="e", dataset="d", metrics={"m": 1.5},
            provenance={"config_digest": "xyz"},
        )
    ]
    assert records_from_json(records_to_json(records)) == records


def test_records_csv_rejects_garbage():
    with pytest.raises(ConfigError, match="unexpected CSV header"):
        records_from_csv("a,b,c\n1,2,3\n")


# -- content cache ---------------------------------------------------------


def test_cache_builds_once_across_threads():
    cache = ContentCache()
    builds = []

    def build():
        builds.append(1)
        return object()

    results = []

    def worker():
        results.append(cache.get_or_build("k", build))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(builds) == 1
    assert all(r is results[0] for r in results)
    stats = cache.stats()
    assert stats["misses"] == 1 and stats["hits"] == 7


def test_cache_failure_is_not_cached():
    cache = ContentCache()
    attempts = []

    def flaky():
        attempts.append(1)
        if len(attempts) == 1:
            raise ValueError("transient")
        return "ok"

    with pytest.raises(ValueError):
        cache.get_or_build("k", flaky)
    assert cache.get_or_build("k", flaky) == "ok"
    assert len(attempts) == 2


def test_cache_waiter_recovers_from_failed_build():
    """A waiter blocked behind a failing build must still store its
    own successful artifact (no orphaned entries)."""
    import time as time_module

    cache = ContentCache()
    started, release = threading.Event(), threading.Event()
    errors, results = [], []

    def failing():
        started.set()
        release.wait(timeout=5)
        raise ValueError("boom")

    def loser():
        try:
            cache.get_or_build("k", failing)
        except ValueError as exc:
            errors.append(exc)

    a = threading.Thread(target=loser)
    a.start()
    assert started.wait(timeout=5)
    b = threading.Thread(
        target=lambda: results.append(
            cache.get_or_build("k", lambda: "ok")
        )
    )
    b.start()
    time_module.sleep(0.05)  # let b block on the in-flight entry
    release.set()
    a.join(timeout=5)
    b.join(timeout=5)
    assert len(errors) == 1 and results == ["ok"]
    # the artifact must be cached: a third caller hits, not rebuilds
    assert "k" in cache
    assert cache.get_or_build("k", lambda: "rebuilt") == "ok"


def test_cached_passthrough_without_active_cache():
    assert cached("kind", {"a": 1}, lambda: 42) == 42


def test_activated_scopes_nest():
    outer, inner = ContentCache(), ContentCache()
    with activated(outer):
        with activated(inner):
            cached("kind", {"x": 1}, lambda: "v")
            assert inner.stats()["misses"] == 1
        cached("kind", {"x": 1}, lambda: "v")
        assert outer.stats()["misses"] == 1


def test_spec_key_stable_and_distinct():
    a = spec_key("dataset", name="reddit", seed=0)
    assert a == spec_key("dataset", seed=0, name="reddit")
    assert a != spec_key("dataset", name="reddit", seed=1)
    assert a != spec_key("workloads", name="reddit", seed=0)


# -- campaign executor -----------------------------------------------------


def test_campaign_jobs_parity(synthetic):
    """Parallel execution must not change any metric value."""
    serial = Campaign(
        experiments=list(synthetic), cfg=CFG, jobs=1
    ).run()
    parallel = Campaign(
        experiments=list(synthetic), cfg=CFG, jobs=4
    ).run()
    assert serial.n_failures == parallel.n_failures == 0
    assert list(serial.outcomes) == list(parallel.outcomes)
    for name in serial.outcomes:
        a = records_to_json(serial.outcomes[name].records)
        b = records_to_json(parallel.outcomes[name].records)
        assert a == b
    for outcome in parallel.outcomes.values():
        # wall span never exceeds the summed unit work (plus epsilon)
        assert 0 < outcome.elapsed_s <= outcome.work_s + 0.05


def test_campaign_shares_cache_across_experiments(synthetic):
    cache = ContentCache()
    result = Campaign(
        experiments=list(synthetic), cfg=CFG, jobs=2, cache=cache
    ).run()
    assert result.n_failures == 0
    # both experiments materialize the same two datasets: the second
    # experiment must hit the first one's cache entries
    assert result.cache_stats["hits"] >= 2
    assert result.cache_stats["misses"] <= 4


def test_campaign_failure_isolation(synthetic, failing):
    result = Campaign(
        experiments=[synthetic[0], failing, synthetic[1]],
        cfg=CFG,
    ).run()
    assert result.failures == (failing,)
    outcome = result.outcomes[failing]
    assert not outcome.ok
    assert "kaput" in outcome.error
    assert "RuntimeError" in outcome.traceback
    assert "boom" in outcome.traceback  # traceback, not just repr
    for name in synthetic:
        assert result.outcomes[name].ok


def test_campaign_plan_failure_isolated(synthetic):
    register_experiment("synthetic-bad-plan", tags=("synthetic",))(
        lambda cfg: (_ for _ in ()).throw(ValueError("bad plan"))
    )
    try:
        result = Campaign(
            experiments=["synthetic-bad-plan", synthetic[0]], cfg=CFG
        ).run()
    finally:
        unregister_experiment("synthetic-bad-plan")
    assert result.failures == ("synthetic-bad-plan",)
    assert "plan" in result.outcomes["synthetic-bad-plan"].error
    assert result.outcomes[synthetic[0]].ok


@pytest.fixture
def reader(synthetic):
    """``synthetic-reader`` reads ``synthetic-a``; counts a's unit runs."""
    runs = []
    register_experiment(
        "synthetic-a", collect=_collect, replace=True,
    )(
        lambda cfg: [
            partial(lambda d: runs.append(d) or _unit(d, cfg), d)
            for d in ("protein-pi", "reddit")
        ]
    )
    register_experiment(
        "synthetic-reader",
        tags=("synthetic",),
        reads=("synthetic-a",),
        collect=lambda cfg, outputs: {
            "source": outputs[0], "total": outputs[0]["total_nodes"],
        },
        records=lambda result: [
            RunRecord("synthetic-reader", metrics={"total": result["total"]})
        ],
    )(lambda cfg: [])
    try:
        yield runs
    finally:
        unregister_experiment("synthetic-reader")


def test_campaign_hands_reads_their_results(reader):
    result = Campaign(
        experiments=["synthetic-a", "synthetic-reader"], cfg=CFG
    ).run()
    assert result.n_failures == 0
    source = result.outcomes["synthetic-a"].result
    assert result.outcomes["synthetic-reader"].result["source"] is source
    assert sorted(reader) == ["protein-pi", "reddit"]  # ran once


def test_campaign_runs_unselected_reads_unlisted(reader):
    alone = Campaign(experiments=["synthetic-reader"], cfg=CFG).run()
    assert list(alone.outcomes) == ["synthetic-reader"]
    assert len(reader) == 2
    both = Campaign(
        experiments=["synthetic-reader", "synthetic-a"], cfg=CFG, jobs=2
    ).run()
    assert len(reader) == 4
    assert records_to_json(
        alone.outcomes["synthetic-reader"].records
    ) == records_to_json(both.outcomes["synthetic-reader"].records)


def test_campaign_reads_need_an_equal_config(reader):
    result = Campaign(
        experiments=[
            ("synthetic-a", {"edge_budget": 1.2e5}), "synthetic-reader",
        ],
        cfg=CFG,
    ).run()
    assert result.n_failures == 0
    assert len(reader) == 4  # the reader's own copy ran at CFG
    expected = run_experiment("synthetic-reader", CFG)
    assert result.outcomes["synthetic-reader"].result["total"] == (
        expected.result["total"]
    )
    assert result.outcomes["synthetic-reader"].result["source"] is not (
        result.outcomes["synthetic-a"].result
    )


def test_campaign_reader_fails_with_its_read(synthetic):
    def boom():
        raise RuntimeError("kaput")

    register_experiment("synthetic-fail-a", replace=True)(
        lambda cfg: [boom]
    )
    register_experiment(
        "synthetic-fail-reader", reads=("synthetic-fail-a",)
    )(lambda cfg: [])
    try:
        result = Campaign(
            experiments=["synthetic-fail-reader"], cfg=CFG
        ).run()
    finally:
        unregister_experiment("synthetic-fail-a")
        unregister_experiment("synthetic-fail-reader")
    assert result.failures == ("synthetic-fail-reader",)
    error = result.outcomes["synthetic-fail-reader"].error
    assert error.startswith("read:") and "kaput" in error


def test_campaign_tag_filtering(synthetic):
    only = Campaign(cfg=CFG, only_tags=("synthetic",))
    assert set(only.selected) == set(synthetic)
    skipped = Campaign(
        experiments=list(synthetic) + ["table1"],
        cfg=CFG,
        skip_tags=("synthetic",),
    )
    assert skipped.selected == ("table1",)


def test_campaign_rejects_bad_inputs(synthetic):
    with pytest.raises(ConfigError, match="jobs"):
        Campaign(experiments=list(synthetic), jobs=0)
    with pytest.raises(ConfigError, match="selected twice"):
        Campaign(experiments=[synthetic[0], synthetic[0]])
    with pytest.raises(ConfigError, match="unknown experiment"):
        Campaign(experiments=["nope"])


def test_campaign_artifacts(tmp_path, synthetic):
    out = tmp_path / "artifacts"
    result = Campaign(
        experiments=list(synthetic),
        cfg=CFG,
        jobs=2,
        out_dir=str(out),
    ).run()
    assert result.n_failures == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["campaign"]["jobs"] == 2
    assert manifest["campaign"]["n_failures"] == 0
    assert set(manifest["experiments"]) == set(synthetic)
    for name in synthetic:
        entry = manifest["experiments"][name]
        assert entry["status"] == "ok"
        blob = json.loads((out / entry["files"]["json"]).read_text())
        records = records_from_json(blob["records"])
        assert records and all(
            r.provenance.get("config_digest") for r in records
        )
        csv_records = records_from_csv(
            (out / entry["files"]["csv"]).read_text()
        )
        assert [r.metrics for r in csv_records] == [
            pytest.approx(r.metrics) for r in records
        ]
        assert (out / entry["files"]["text"]).read_text().startswith(
            "nodes="
        )


def test_campaign_spec_round_trip_and_overrides(synthetic):
    spec = CampaignSpec(
        experiments=[
            synthetic[0],
            {"name": synthetic[1], "config": {"batch_size": 8}},
        ],
        config={"edge_budget": 1.5e5, "n_workloads": 3},
        jobs=2,
    )
    again = CampaignSpec.from_dict(
        json.loads(json.dumps(spec.to_dict()))
    )
    assert again == spec
    campaign = Campaign.from_spec(spec, cfg=CFG)
    assert campaign.selected == tuple(synthetic)
    assert campaign.jobs == 2
    cfgs = {
        entry.name: cfg for entry, cfg in campaign._selection
    }
    assert cfgs[synthetic[0]].batch_size == CFG.batch_size
    assert cfgs[synthetic[1]].batch_size == 8


def test_campaign_spec_validation():
    with pytest.raises(ConfigError, match="unknown campaign field"):
        CampaignSpec.from_dict({"bogus": 1})
    with pytest.raises(ConfigError, match="unknown experiment"):
        CampaignSpec(experiments=["nope"]).validate()
    with pytest.raises(ConfigError, match="jobs"):
        CampaignSpec(jobs=0).validate()
    with pytest.raises(
        ConfigError, match="unknown experiment config field"
    ):
        CampaignSpec(config={"bogus": 1}).validate()
    # a bare string must not be silently split into character "tags"
    with pytest.raises(ConfigError, match="only must be a list"):
        CampaignSpec(only="paper").validate()
    with pytest.raises(ConfigError, match="skip must be a list"):
        CampaignSpec(skip="paper").validate()
    with pytest.raises(ConfigError, match="experiments must be a list"):
        CampaignSpec(experiments="table1").validate()


def test_experiment_config_round_trip():
    cfg = ExperimentConfig(edge_budget=1e5, fanouts=(5, 2))
    again = ExperimentConfig.from_dict(
        json.loads(json.dumps(cfg.to_dict()))
    )
    assert again.edge_budget == cfg.edge_budget
    assert again.fanouts == cfg.fanouts
    with pytest.raises(ConfigError, match="unknown experiment config"):
        ExperimentConfig.from_dict({"hw": {}})
    merged = cfg.merged({"batch_size": 8})
    assert merged.batch_size == 8 and merged.fanouts == cfg.fanouts


# -- run_all + CLI ---------------------------------------------------------


def test_run_all_rejects_unknown_flags():
    from repro.__main__ import main

    with pytest.raises(SystemExit) as excinfo:
        main(["run", "all", "--bogus"])
    assert excinfo.value.code == 2


def test_run_all_prints_traceback_on_failure(monkeypatch, failing, capsys):
    from repro.__main__ import main
    from repro.experiments import run_all

    monkeypatch.setattr(run_all, "ORDER", (failing,))
    assert main(["run", "all", "--quick"]) == 1
    captured = capsys.readouterr()
    assert "FAILED" in captured.err
    assert "Traceback" in captured.out
    assert "RuntimeError: kaput" in captured.out


def test_run_all_json_output(monkeypatch, capsys):
    from repro.__main__ import main
    from repro.experiments import run_all

    monkeypatch.setattr(run_all, "ORDER", ("table1",))
    assert main(["run", "all", "--quick", "--jobs", "2", "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["campaign"]["n_failures"] == 0
    assert blob["experiments"]["table1"]["status"] == "ok"
    assert blob["records"]["table1"]


def test_cli_run_single_json(capsys):
    from repro.__main__ import main

    assert main(["run", "table1", "--quick", "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["experiments"]["table1"]["status"] == "ok"


def test_cli_run_single_respects_skip_tags(capsys):
    from repro.__main__ import main

    assert main(["run", "table1", "--quick", "--skip", "paper"]) == 0
    captured = capsys.readouterr()
    assert "excluded" in captured.err
    assert "Table I" not in captured.out


def test_cli_campaign_subcommand(tmp_path, synthetic, capsys):
    from repro.__main__ import main

    out = tmp_path / "artifacts"
    spec_path = tmp_path / "campaign.json"
    spec_path.write_text(
        json.dumps(
            {
                "experiments": list(synthetic),
                "config": {
                    "edge_budget": 1.5e5,
                    "batch_size": 16,
                    "n_workloads": 3,
                },
                "jobs": 2,
            }
        )
    )
    assert main(
        ["campaign", str(spec_path), "--out", str(out)]
    ) == 0
    assert (out / "manifest.json").exists()
    captured = capsys.readouterr()
    for name in synthetic:
        assert name in captured.out


def test_cli_campaign_bad_file(tmp_path, capsys):
    from repro.__main__ import main

    missing = tmp_path / "nope.json"
    assert main(["campaign", str(missing)]) == 1
    assert "error" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["campaign", str(bad)]) == 1


def test_cli_run_spec_compare_unknown_design(tmp_path, capsys):
    from repro.__main__ import main
    from repro.api import RunSpec, SystemSpec

    path = tmp_path / "spec.json"
    RunSpec(
        dataset="protein-pi",
        edge_budget=1.5e5,
        batch_size=16,
        n_workloads=3,
        n_batches=4,
        n_workers=2,
        system=SystemSpec(design="ssd-mmap"),
    ).to_json(str(path))
    assert main(
        ["run-spec", str(path), "--compare", "dram,no-such-design"]
    ) == 1
    assert "unknown design" in capsys.readouterr().err


def test_cli_run_spec_compare_lists_all_designs(tmp_path, capsys):
    from repro.__main__ import main
    from repro.api import RunSpec, SystemSpec

    path = tmp_path / "spec.json"
    RunSpec(
        dataset="protein-pi",
        edge_budget=1.5e5,
        batch_size=16,
        n_workloads=3,
        n_batches=4,
        n_workers=2,
        system=SystemSpec(design="ssd-mmap"),
    ).to_json(str(path))
    assert main(
        ["run-spec", str(path), "--compare", "dram,pmem,ssd-mmap"]
    ) == 0
    out = capsys.readouterr().out
    for design in ("dram", "pmem", "ssd-mmap"):
        assert design in out
    assert "speedups vs dram" in out


# -- disk result store + graceful interrupt --------------------------------


def _spec_units(cfg):
    from repro.api import RunSpec, SystemSpec

    return [
        RunSpec(
            dataset="protein-pi",
            edge_budget=1.5e5,
            batch_size=16,
            n_workloads=3,
            n_batches=2,
            n_workers=2,
            seed=seed,
            system=SystemSpec(design="ssd-mmap"),
        )
        for seed in (0, 1)
    ]


@pytest.fixture
def spec_planned():
    register_experiment("synthetic-spec", tags=("synthetic",))(
        _spec_units
    )
    try:
        yield "synthetic-spec"
    finally:
        unregister_experiment("synthetic-spec")


@pytest.fixture
def interrupting():
    def boom():
        raise KeyboardInterrupt()

    register_experiment("synthetic-interrupt", tags=("synthetic",))(
        lambda cfg: [boom]
    )
    try:
        yield "synthetic-interrupt"
    finally:
        unregister_experiment("synthetic-interrupt")


def test_cancel_pending_counts_cancellations():
    from repro.api.campaign import cancel_pending

    class FakeFuture:
        def __init__(self, ok):
            self.ok = ok

        def cancel(self):
            return self.ok

    futures = [FakeFuture(True), FakeFuture(False), FakeFuture(True)]
    assert cancel_pending(futures) == 2


def test_campaign_store_serves_resubmitted_specs(tmp_path, spec_planned):
    from repro.service.store import result_to_dict

    store_dir = str(tmp_path / "store")
    first = Campaign(
        experiments=[spec_planned], cfg=CFG, store=store_dir
    ).run()
    assert first.outcomes[spec_planned].ok
    assert first.store_stats["puts"] == 2
    assert first.store_stats["hits"] == 0

    # identical campaign resubmitted: zero units simulate, results are
    # rebuilt from the exact records the first run persisted
    second = Campaign(
        experiments=[spec_planned], cfg=CFG, store=store_dir
    ).run()
    assert second.outcomes[spec_planned].ok
    assert second.store_stats["hits"] == 2
    assert second.store_stats["puts"] == 0
    assert [
        result_to_dict(r) for r in first.outcomes[spec_planned].result
    ] == [
        result_to_dict(r) for r in second.outcomes[spec_planned].result
    ]
    assert second.manifest()["store"]["hits"] == 2


def test_campaign_and_service_write_one_record_format(
    tmp_path, spec_planned
):
    """A store-backed campaign persists the bytes the service does."""
    from repro.service import CampaignService, ResultStore

    campaign_store = ResultStore(str(tmp_path / "campaign"))
    result = Campaign(
        experiments=[spec_planned], cfg=CFG, store=campaign_store
    ).run()
    assert result.outcomes[spec_planned].ok
    with CampaignService(
        str(tmp_path / "service"), executor="inline"
    ) as service:
        for spec in _spec_units(CFG):
            service.submit(spec)
        report = service.drain()
    assert report.jobs_completed == 2
    keys = sorted(campaign_store.keys())
    assert len(keys) == 2
    assert keys == sorted(service.store.keys())
    for key in keys:
        with open(campaign_store.path_for(key), "rb") as f:
            campaign_bytes = f.read()
        with open(service.store.path_for(key), "rb") as f:
            assert campaign_bytes == f.read()


def test_campaign_interrupt_writes_partial_manifest(
    tmp_path, synthetic, interrupting
):
    out = tmp_path / "artifacts"
    campaign = Campaign(
        experiments=[interrupting, synthetic[0]],
        cfg=CFG,
        jobs=1,
        out_dir=str(out),
    )
    with pytest.raises(KeyboardInterrupt):
        campaign.run()
    manifest = json.load(open(out / "manifest.json"))
    assert manifest["campaign"]["interrupted"] is True
    statuses = {
        name: entry["status"]
        for name, entry in manifest["experiments"].items()
    }
    assert statuses[interrupting] == "cancelled"
    assert (
        "KeyboardInterrupt"
        in manifest["experiments"][interrupting]["error"]
    )


def test_campaign_without_store_has_empty_store_stats(synthetic):
    result = Campaign(experiments=[synthetic[0]], cfg=CFG).run()
    assert result.store_stats == {}
    assert result.interrupted is False
    assert result.manifest()["campaign"]["interrupted"] is False


def test_elapsed_excludes_time_queued_behind_earlier_experiments():
    # at --jobs 1 the second experiment's units wait for the first's;
    # its span starts when its own first unit starts
    import time

    def slow():
        time.sleep(0.2)
        return 0

    names = ("synthetic-slow-a", "synthetic-slow-b")
    for name in names:
        register_experiment(name, tags=("synthetic",))(
            lambda cfg: [slow, slow]
        )
    try:
        result = Campaign(list(names), cfg=CFG, jobs=1).run()
    finally:
        for name in names:
            unregister_experiment(name)
    first, second = (result.outcomes[name] for name in names)
    assert first.ok and second.ok
    both = first.work_s + second.work_s
    assert second.elapsed_s >= 0.4
    assert second.elapsed_s < 0.75 * both
