"""Tests for the benchmark registry, harness, artifacts, and CLI."""

import json
import os

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.perf import (
    SCHEMA,
    BenchContext,
    BenchResult,
    available_benchmarks,
    benchmark_entry,
    benchmarks_with_tag,
    compare_to_baseline,
    load_baseline,
    register_benchmark,
    run_benchmark,
    run_benchmarks,
    unregister_benchmark,
    write_result,
)
from repro.__main__ import main as cli_main


# -- registry --------------------------------------------------------------


def test_builtin_benchmarks_registered():
    names = available_benchmarks()
    assert len(names) >= 6
    for expected in (
        "llc-trace", "flash-plan", "frontier-dedup",
        "sampler-batch", "sampler-noreplace", "mmap-faultaround",
        "event-engine", "resource-churn", "fault-overhead", "csr-build",
    ):
        assert expected in names
    assert "fault-overhead" in benchmarks_with_tag("macro")
    assert set(benchmarks_with_tag("micro")) <= set(names)


def test_register_and_unregister_custom_benchmark():
    @register_benchmark("tmp-bench", tags=("micro",),
                        description="trivial")
    def _bench(ctx):
        return ctx.result(ops=10, elapsed_s=ctx.time(lambda: None))

    try:
        assert "tmp-bench" in available_benchmarks()
        with pytest.raises(ConfigError):
            register_benchmark("tmp-bench")(lambda ctx: None)
        result = run_benchmark("tmp-bench", repeats=1)
        assert result.ops == 10
        assert result.ops_per_sec > 0
        assert result.speedup_vs_reference is None
    finally:
        unregister_benchmark("tmp-bench")
    assert "tmp-bench" not in available_benchmarks()
    with pytest.raises(ConfigError):
        benchmark_entry("tmp-bench")


def test_register_rejects_bad_names():
    with pytest.raises(ConfigError):
        register_benchmark("")
    with pytest.raises(ConfigError):
        register_benchmark(None)


def test_benchmark_must_return_ctx_result():
    @register_benchmark("tmp-broken")
    def _bench(ctx):
        return 42

    try:
        with pytest.raises(ConfigError):
            run_benchmark("tmp-broken")
    finally:
        unregister_benchmark("tmp-broken")


# -- context helpers -------------------------------------------------------


def test_bench_context_scale_and_stage():
    ctx = BenchContext(smoke=True, repeats=1)
    assert ctx.scale(1000, 10) == 10
    assert BenchContext(smoke=False).scale(1000, 10) == 1000
    with ctx.stage("a"):
        pass
    with ctx.stage("a"):
        pass
    assert "a" in ctx.stages and ctx.stages["a"] >= 0.0
    with pytest.raises(ConfigError):
        BenchContext(repeats=0)


def test_bench_context_time_keeps_best_runs_stages_only():
    ctx = BenchContext(repeats=3)

    def body():
        with ctx.stage("inner"):
            pass

    elapsed = ctx.time(body)
    # the breakdown decomposes the reported best time: one run's worth,
    # not the sum over every repeat
    assert ctx.stages["inner"] <= elapsed
    # stages recorded outside ctx.time survive alongside
    with ctx.stage("outer"):
        pass
    assert set(ctx.stages) == {"inner", "outer"}


# -- smoke run + artifacts -------------------------------------------------


@pytest.fixture(scope="module")
def smoke_results(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    results = run_benchmarks(smoke=True, out_dir=str(out), repeats=1)
    return out, results


def test_smoke_runs_every_builtin(smoke_results):
    _out, results = smoke_results
    assert len(results) == len(available_benchmarks())
    by_name = {r.name: r for r in results}
    assert "fault-overhead" in by_name  # a whole pipeline run
    for result in results:
        assert result.ops > 0
        assert result.elapsed_s > 0
        assert result.ops_per_sec > 0


def test_smoke_kernels_beat_reference(smoke_results):
    # acceptance: >= 2 benchmarks at >= 2x over the scalar reference
    _out, results = smoke_results
    fast = [
        r for r in results
        if r.speedup_vs_reference is not None
        and r.speedup_vs_reference >= 2.0
    ]
    assert len(fast) >= 2, [
        (r.name, r.speedup_vs_reference) for r in results
    ]


def test_bench_json_schema(smoke_results):
    out, results = smoke_results
    files = sorted(p for p in os.listdir(out) if p.startswith("BENCH_"))
    assert len(files) == len(results)
    for fname in files:
        with open(os.path.join(out, fname)) as fh:
            blob = json.load(fh)
        assert blob["schema"] == SCHEMA
        for key in (
            "name", "description", "tags", "smoke", "repeats", "ops",
            "elapsed_s", "ops_per_sec", "stages", "metrics", "machine",
            "git", "created_utc",
        ):
            assert key in blob, (fname, key)
        assert blob["machine"]["numpy"] == np.__version__
        assert blob["smoke"] is True
    with open(os.path.join(out, "BENCH_fault-overhead.json")) as fh:
        pipeline = json.load(fh)
    assert set(pipeline["stages"]) == {"build"}
    assert pipeline["metrics"]["overhead_fraction"] > -1.0


# -- baseline comparison ---------------------------------------------------


def _fake_result(name, ops_per_sec):
    return BenchResult(
        name=name, description="", tags=(), ops=int(ops_per_sec),
        elapsed_s=1.0, smoke=True, repeats=1,
    )


def test_baseline_regression_detection(tmp_path):
    current = _fake_result("kernel", 100.0)
    write_result(current, str(tmp_path))
    baseline = load_baseline(str(tmp_path))
    assert "kernel" in baseline
    # same speed: fine
    assert compare_to_baseline([current], baseline, 2.0) == []
    # 3x slower than baseline: flagged at 2x tolerance
    slow = _fake_result("kernel", 33.0)
    regressions = compare_to_baseline([slow], baseline, 2.0)
    assert len(regressions) == 1
    assert regressions[0].factor == pytest.approx(100.0 / 33.0)
    assert "kernel" in str(regressions[0])
    # benchmarks missing from the baseline are ignored
    assert compare_to_baseline(
        [_fake_result("brand-new", 1.0)], baseline, 2.0
    ) == []
    with pytest.raises(ConfigError):
        compare_to_baseline([current], baseline, 0.0)


def test_baseline_smoke_scale_mismatch_is_an_error(tmp_path):
    smoke_result = _fake_result("kernel", 100.0)
    write_result(smoke_result, str(tmp_path))
    baseline = load_baseline(str(tmp_path))
    full_result = BenchResult(
        name="kernel", description="", tags=(), ops=100,
        elapsed_s=1.0, smoke=False, repeats=1,
    )
    with pytest.raises(ConfigError):
        compare_to_baseline([full_result], baseline, 2.0)


def test_load_baseline_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_baseline(str(tmp_path / "missing"))
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(ConfigError):
        load_baseline(str(empty))
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "BENCH_x.json").write_text("{not json")
    with pytest.raises(ConfigError):
        load_baseline(str(bad))


# -- CLI -------------------------------------------------------------------


def test_cli_bench_list(capsys):
    assert cli_main(["bench", "--list"]) == 0
    out = capsys.readouterr().out
    assert "llc-trace" in out and "fault-overhead" in out


def test_cli_bench_unknown_name(capsys):
    assert cli_main(["bench", "no-such-bench", "--smoke"]) == 2
    assert "no-such-bench" in capsys.readouterr().err


def test_cli_bench_smoke_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "artifacts"
    rc = cli_main([
        "bench", "frontier-dedup", "flash-plan",
        "--smoke", "--repeats", "1", "--out", str(out),
    ])
    assert rc == 0
    files = sorted(os.listdir(out))
    assert files == [
        "BENCH_flash-plan.json", "BENCH_frontier-dedup.json"
    ]
    assert "ops/s" in capsys.readouterr().out


def test_cli_bench_baseline_gate(tmp_path, capsys):
    base = tmp_path / "baseline"
    write_result(_fake_result("frontier-dedup", 1e15), str(base))
    rc = cli_main([
        "bench", "frontier-dedup", "--smoke", "--repeats", "1",
        "--no-write", "--baseline", str(base),
    ])
    assert rc == 1
    assert "REGRESSION" in capsys.readouterr().err
    # an easily met baseline passes
    base_ok = tmp_path / "baseline-ok"
    write_result(_fake_result("frontier-dedup", 1.0), str(base_ok))
    rc = cli_main([
        "bench", "frontier-dedup", "--smoke", "--repeats", "1",
        "--no-write", "--baseline", str(base_ok),
    ])
    assert rc == 0
    assert "baseline ok" in capsys.readouterr().err


def test_cli_bench_tag_filter(tmp_path):
    out = tmp_path / "tagged"
    rc = cli_main([
        "bench", "--tag", "sim", "--smoke", "--repeats", "1",
        "--out", str(out),
    ])
    assert rc == 0
    assert sorted(os.listdir(out)) == [
        "BENCH_event-engine.json",
        "BENCH_resource-churn.json",
    ]
    assert cli_main(["bench", "--tag", "no-such-tag"]) == 2


def test_cli_bench_unknown_name_fails_even_with_tag(capsys):
    rc = cli_main([
        "bench", "event-engine", "no-such-bench", "--tag", "sim",
        "--smoke",
    ])
    assert rc == 2
    assert "no-such-bench" in capsys.readouterr().err


def test_cli_bench_json_output(capsys):
    rc = cli_main([
        "bench", "event-engine", "--smoke", "--repeats", "1",
        "--no-write", "--json",
    ])
    assert rc == 0
    blobs = json.loads(capsys.readouterr().out)
    assert blobs[0]["name"] == "event-engine"
    assert blobs[0]["schema"] == SCHEMA
