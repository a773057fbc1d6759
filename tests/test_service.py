"""Tests for the campaign service: store, queue, serving loop, CLI."""

import json
import multiprocessing
import os
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.api.cache import canonical_json, spec_key
from repro.errors import ConfigError
from repro.service import (
    CampaignService,
    JobQueue,
    ResultStore,
    Spool,
    evaluate_spec_dict,
    generate_traffic,
    make_record,
    record_bytes,
    run_key,
    spec_pool,
    traffic_summary,
)
from repro.service.worker import evaluate_and_store, place_worker

#: tiny-but-real specs (a few hundred ms each); index = distinct spec
POOL = spec_pool(3, edge_budget=5e4, batch_size=8, n_batches=2)


def fake_record(spec_dict, payload=1.0):
    return make_record(
        run_key(spec_dict), spec_dict, {"payload": payload}
    )


def fake_work(spec_dict, store_root):
    return fake_record(spec_dict)


# -- canonical JSON / spec_key (numpy-safe keys) ---------------------------


def test_spec_key_canonicalizes_numpy_scalars():
    base = spec_key("run", seed=3, rate=0.5, flag=True)
    assert spec_key(
        "run",
        seed=np.int64(3),
        rate=np.float64(0.5),
        flag=np.bool_(True),
    ) == base


def test_spec_key_canonicalizes_arrays_and_containers():
    a = spec_key("run", fanouts=np.array([25, 10]))
    b = spec_key("run", fanouts=np.array([25, 10]))
    assert a == b
    assert a != spec_key("run", fanouts=np.array([10, 25]))
    assert spec_key("run", tags={"b", "a"}) == spec_key(
        "run", tags=frozenset(("a", "b"))
    )
    assert spec_key("run", blob=b"\x00\x01") == spec_key(
        "run", blob=b"\x00\x01"
    )


def test_spec_key_rejects_unhashable_content():
    with pytest.raises(ConfigError, match="stable content key"):
        spec_key("run", bad=object())


def test_canonical_json_is_sorted_and_compact():
    blob = canonical_json({"b": 1, "a": [1, 2]})
    assert blob == '{"a":[1,2],"b":1}'


# -- result store ----------------------------------------------------------


def test_result_store_roundtrip_and_byte_identity(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    spec_dict = POOL[0].to_dict()
    record = fake_record(spec_dict)
    path = store.put(record)
    with open(path, "rb") as f:
        assert f.read() == record_bytes(record)
    again = store.get(record["key"])
    assert again == record
    assert record["key"] in store
    assert list(store.keys()) == [record["key"]]
    stats = store.stats()
    assert stats["puts"] == 1 and stats["hits"] == 1
    assert stats["entries"] == 1


def test_result_store_miss_and_malformed_key(tmp_path):
    store = ResultStore(str(tmp_path))
    assert store.get("run:" + "0" * 64) is None
    assert store.stats()["misses"] == 1
    with pytest.raises(ConfigError, match="malformed store key"):
        store.path_for("../escape")


def test_result_store_schema_and_key_guards(tmp_path):
    store = ResultStore(str(tmp_path))
    record = fake_record(POOL[0].to_dict())
    bad_schema = dict(record, schema="repro.result/v999")
    with open(store.path_for(record["key"]), "w") as f:
        json.dump(bad_schema, f)
    with pytest.raises(ConfigError, match="schema"):
        store.get(record["key"])
    other = fake_record(POOL[1].to_dict())
    with open(store.path_for(record["key"]), "w") as f:
        json.dump(other, f)
    with pytest.raises(ConfigError, match="keyed"):
        store.get(record["key"])
    with pytest.raises(ConfigError, match="missing"):
        store.put({"schema": "x", "key": "run:ab"})


def test_run_key_requires_valid_spec():
    with pytest.raises(ConfigError):
        run_key(POOL[0].replace(batch_size=-1))
    assert run_key(POOL[0]) == run_key(POOL[0].to_dict())
    assert run_key(POOL[0]) != run_key(POOL[1])


# -- job queue + journal ---------------------------------------------------


def test_jobqueue_priority_then_fifo():
    q = JobQueue()
    low = q.submit("run:a", {}, priority=0)
    high = q.submit("run:b", {}, priority=5)
    mid_1 = q.submit("run:c", {}, priority=1)
    mid_2 = q.submit("run:d", {}, priority=1)
    order = [q.next_job().job_id for _ in range(4)]
    assert order == [
        high.job_id, mid_1.job_id, mid_2.job_id, low.job_id
    ]
    assert q.next_job() is None
    assert q.depth() == 0


def test_jobqueue_journal_survives_restart(tmp_path):
    journal = str(tmp_path / "journal.jsonl")
    q = JobQueue(journal)
    done = q.submit("run:a", {"x": 1}, priority=2)
    q.mark_done(q.next_job(), "computed")
    running = q.submit("run:b", {"x": 2})
    assert q.next_job().job_id == running.job_id
    queued = q.submit("run:c", {"x": 3})
    failed = q.submit("run:d", {"x": 4})
    q.job(failed.job_id)  # still known
    q.mark_failed(failed, "kaput")
    q.close()

    q2 = JobQueue(journal)
    assert q2.job(done.job_id).state == "done"
    assert q2.job(done.job_id).source == "computed"
    assert q2.job(failed.job_id).state == "failed"
    assert q2.job(failed.job_id).error == "kaput"
    # the mid-flight job came back as queued and is flagged
    assert q2.recovered_running == (running.job_id,)
    assert q2.job(running.job_id).state == "queued"
    assert {j.job_id for j in q2.jobs() if j.state == "queued"} == {
        running.job_id, queued.job_id,
    }
    assert q2.job(queued.job_id).spec == {"x": 3}
    q2.close()


def test_jobqueue_journal_tolerates_torn_tail(tmp_path):
    journal = str(tmp_path / "journal.jsonl")
    q = JobQueue(journal)
    job = q.submit("run:a", {})
    q.close()
    with open(journal, "a") as f:
        f.write('{"e": "done", "job"')  # crash mid-append
    q2 = JobQueue(journal)
    assert q2.job(job.job_id).state == "queued"
    q2.close()


def test_jobqueue_rejects_bad_priority_and_unknown_job():
    q = JobQueue()
    with pytest.raises(ConfigError, match="priority"):
        q.submit("run:a", {}, priority=True)
    with pytest.raises(ConfigError, match="unknown job"):
        q.job("job-999999")


def test_spool_roundtrip_in_order(tmp_path):
    spool = Spool(str(tmp_path / "spool"))
    spool.append({"x": 1}, priority=1)
    spool.append({"x": 2})
    assert spool.pending() == 2
    entries = spool.drain()
    assert [e.spec for e in entries] == [{"x": 1}, {"x": 2}]
    assert entries[0].priority == 1
    assert spool.pending() == 0 and spool.drain() == []


# -- serving loop ----------------------------------------------------------


def make_service(tmp_path, **kwargs):
    kwargs.setdefault("executor", "thread")
    kwargs.setdefault("work_fn", fake_work)
    return CampaignService(str(tmp_path / "state"), **kwargs)


def test_service_validates_arguments(tmp_path):
    for bad in (0, True, 2.0, "2"):
        with pytest.raises(ConfigError, match="workers"):
            make_service(tmp_path, workers=bad)
    with pytest.raises(ConfigError, match="executor"):
        make_service(tmp_path, executor="rayon")
    for bad in (0, -1.0, float("nan"), float("inf"), True, "5"):
        with pytest.raises(ConfigError, match="job_timeout_s"):
            make_service(tmp_path, job_timeout_s=bad)
    for bad in (-1, True, 1.0, "1"):
        with pytest.raises(ConfigError, match="max_retries"):
            make_service(tmp_path, max_retries=bad)
    for bad in (0, -0.02, float("nan"), float("inf"), True, "0.02"):
        with pytest.raises(ConfigError, match="poll_interval_s"):
            make_service(tmp_path, poll_interval_s=bad)
    with make_service(tmp_path) as service:
        with pytest.raises(ConfigError, match="RunSpec"):
            service.submit(42)


def test_service_exactly_once_per_key(tmp_path):
    calls = []

    def counting(spec_dict, store_root):
        calls.append(run_key(spec_dict))
        time.sleep(0.05)
        return fake_record(spec_dict)

    with make_service(tmp_path, workers=4, work_fn=counting) as svc:
        for _ in range(4):
            for spec in POOL:
                svc.submit(spec)
        report = svc.drain()
    assert report.jobs_completed == 12
    assert sorted(calls) == sorted(run_key(s) for s in POOL)
    assert report.sources["computed"] == 3
    assert (
        report.sources.get("store", 0)
        + report.sources.get("coalesced", 0)
    ) == 9
    assert report.served_fraction == pytest.approx(0.75)


def test_service_priority_order(tmp_path):
    finished = []

    def tracking(spec_dict, store_root):
        finished.append(spec_dict["seed"])
        return fake_record(spec_dict)

    specs = [POOL[0].replace(seed=i) for i in range(3)]
    with make_service(
        tmp_path, workers=1, executor="inline", work_fn=tracking
    ) as svc:
        svc.submit(specs[0], priority=0)
        svc.submit(specs[1], priority=5)
        svc.submit(specs[2], priority=1)
        svc.drain()
    assert finished == [1, 2, 0]


def test_service_unit_failure_is_isolated(tmp_path):
    bad_key = run_key(POOL[1])

    def flaky(spec_dict, store_root):
        if run_key(spec_dict) == bad_key:
            raise ValueError("synthetic unit failure")
        return fake_record(spec_dict)

    with make_service(tmp_path, workers=2, work_fn=flaky) as svc:
        jobs = [svc.submit(spec) for spec in POOL]
        report = svc.drain()
    assert report.counts["done"] == 2
    assert report.counts["failed"] == 1
    assert jobs[1].state == "failed"
    assert "synthetic unit failure" in jobs[1].error
    assert jobs[0].state == jobs[2].state == "done"


def test_service_worker_crash_retries_then_succeeds(tmp_path):
    attempts = []

    def crash_once(spec_dict, store_root):
        attempts.append(1)
        if len(attempts) == 1:
            raise BrokenProcessPool("worker died")
        return fake_record(spec_dict)

    with make_service(
        tmp_path, workers=1, max_retries=1, work_fn=crash_once
    ) as svc:
        job = svc.submit(POOL[0])
        report = svc.drain()
    assert report.counts["done"] == 1
    assert job.state == "done" and job.attempts == 2


def test_service_worker_crash_exhausts_retries(tmp_path):
    doomed_key = run_key(POOL[0])

    def crashing(spec_dict, store_root):
        if run_key(spec_dict) == doomed_key:
            raise BrokenProcessPool("worker died")
        return fake_record(spec_dict)

    with make_service(
        tmp_path, workers=1, max_retries=1, work_fn=crashing
    ) as svc:
        doomed = svc.submit(POOL[0])
        healthy = svc.submit(POOL[1])
        report = svc.drain()
    assert doomed.state == "failed"
    assert "retries exhausted" in doomed.error
    assert doomed.attempts == 2  # original + one retry
    assert healthy.state == "done"
    assert report.counts == {
        "done": 1, "failed": 1, "cancelled": 0,
        "queued": 0, "running": 0,
    }


def test_service_job_timeout(tmp_path):
    def slow(spec_dict, store_root):
        time.sleep(0.5)
        return fake_record(spec_dict)

    with make_service(
        tmp_path, workers=1, job_timeout_s=0.05, work_fn=slow,
        poll_interval_s=0.01,
    ) as svc:
        job = svc.submit(POOL[0])
        report = svc.drain()
    assert job.state == "failed"
    assert "timeout" in job.error
    assert report.counts["failed"] == 1


class RecordingWake(threading.Event):
    """Stands in for a service's ``_wake`` event: records what each
    ``wait`` returned (False = it timed out) and signals ``sleeping``
    each time the loop goes to sleep."""

    def __init__(self) -> None:
        super().__init__()
        self.sleeping = threading.Event()
        self.results = []

    def wait(self, timeout=None) -> bool:
        self.sleeping.set()
        woke = super().wait(timeout)
        self.results.append(woke)
        return woke


def test_idle_drain_wakes_on_submission(tmp_path):
    # with a 60 s poll, only the submission's wake-up can let the
    # idle loop serve the job before the join guard gives up
    svc = make_service(tmp_path, executor="inline", poll_interval_s=60)
    wake = svc._wake = RecordingWake()
    reports = []
    server = threading.Thread(target=lambda: reports.append(
        svc.drain(stop_when_idle=False, max_wall_s=0.25)
    ))
    with svc:
        server.start()
        assert wake.sleeping.wait(30.0)
        # submit past max_wall_s, so the loop stops right after serving
        time.sleep(0.3)
        job = svc.submit(POOL[0])
        server.join(30.0)
        assert not server.is_alive()
    assert job.state == "done" and job.source == "computed"
    assert reports[0].jobs_completed == 1
    assert wake.results and all(wake.results), wake.results


def test_finished_worker_wakes_drain(tmp_path):
    release = threading.Event()

    def gated(spec_dict, store_root):
        assert release.wait(30.0)
        return fake_record(spec_dict)

    svc = make_service(tmp_path, workers=1, work_fn=gated,
                       poll_interval_s=60)
    wake = svc._wake = RecordingWake()
    reports = []
    with svc:
        job = svc.submit(POOL[0])
        server = threading.Thread(target=lambda: reports.append(
            svc.drain()
        ))
        server.start()
        # the job is in flight and the loop asleep: only the future's
        # completion can wake it before the 60 s poll
        assert wake.sleeping.wait(30.0)
        release.set()
        server.join(30.0)
        assert not server.is_alive()
    assert job.state == "done" and job.source == "computed"
    assert reports[0].jobs_completed == 1
    assert wake.results and all(wake.results), wake.results


def test_service_graceful_shutdown_requeues_in_flight(tmp_path):
    release = threading.Event()

    def blocking(spec_dict, store_root):
        release.wait(2.0)
        return fake_record(spec_dict)

    svc = make_service(tmp_path, workers=1, work_fn=blocking)
    running = svc.submit(POOL[0])
    queued = svc.submit(POOL[1])
    svc.drain(max_wall_s=0.1)
    assert running.state == "running"
    requeued = svc.shutdown()
    assert requeued == (running.job_id,)
    assert running.state == "queued"
    assert queued.state == "queued"
    release.set()
    svc.close()

    # a restarted service picks the same work straight back up
    with make_service(tmp_path, workers=2) as svc2:
        report = svc2.drain()
    assert report.counts["done"] == 2


def test_service_recovers_journal_after_simulated_crash(tmp_path):
    # crash = the process dies mid-flight: journal has a start event
    # with no terminal event, and nothing was cleanly shut down
    svc = make_service(tmp_path, workers=1)
    svc.submit(POOL[0])
    svc.submit(POOL[1])
    started = svc.queue.next_job()  # journaled as running, then "crash"
    del svc

    svc2 = make_service(tmp_path, workers=2)
    assert svc2.queue.recovered_running == (started.job_id,)
    report = svc2.drain()
    svc2.close()
    assert report.counts["done"] == 2
    assert svc2.queue.job(started.job_id).state == "done"


def test_service_invalid_spool_submission_is_isolated(tmp_path):
    with make_service(tmp_path, workers=1) as svc:
        svc.spool.append({"dataset": "no-such-dataset"})
        svc.spool.append(POOL[0].to_dict(), priority=1)
        report = svc.drain()
    assert report.counts["done"] == 1
    assert report.counts["failed"] == 1
    failed = [j for j in svc.queue.jobs() if j.state == "failed"]
    assert "invalid spec" in failed[0].error


def test_service_report_scoped_to_current_instance(tmp_path):
    with make_service(tmp_path, workers=2) as svc:
        for spec in POOL:
            svc.submit(spec)
        first = svc.drain()
    assert first.sources == {"computed": 3}

    with make_service(tmp_path, workers=2) as svc2:
        for spec in POOL:
            svc2.submit(spec)
        second = svc2.drain()
        status = svc2.status()
    # the fresh instance recovered 3 historical jobs from the journal,
    # but its report covers only the drain it ran
    assert second.sources == {"store": 3}
    assert second.served_fraction == 1.0
    assert status["counts"]["done"] == 6


# -- batched analytic dispatch ---------------------------------------------


def _analytic_specs(n, **overrides):
    from repro.api import RunSpec, SystemSpec

    base = dict(
        dataset="protein-pi", edge_budget=1.5e5, batch_size=16,
        n_workloads=3, n_batches=4, mode="analytic",
        system=SystemSpec(design="smartsage-sw"),
    )
    base.update(overrides)
    return [RunSpec(n_workers=w + 1, **base) for w in range(n)]


def test_service_batches_queued_analytic_jobs(tmp_path):
    """Queued analytic jobs coalesce into one batch submission (one
    worker slot, however many members) and every record lands in the
    store byte-identical to what the scalar worker would have
    written."""
    from repro.service.worker import evaluate_and_store

    specs = _analytic_specs(10)
    store_root = str(tmp_path / "state" / "store")
    svc = CampaignService(
        str(tmp_path / "state"), workers=2, executor="thread"
    )
    for spec in specs:
        svc.submit(spec)
    report = svc.drain()
    svc.close()
    assert report.jobs_completed == 10
    assert report.sources.get("batch", 0) >= 9
    # replay every spec through the scalar path into a fresh store
    scalar_root = str(tmp_path / "scalar-store")
    for spec in specs:
        evaluate_and_store(spec.to_dict(), scalar_root)
    store = ResultStore(store_root)
    scalar = ResultStore(scalar_root)
    for spec in specs:
        key = run_key(spec)
        with open(store.path_for(key), "rb") as f:
            batched_bytes = f.read()
        with open(scalar.path_for(key), "rb") as f:
            assert batched_bytes == f.read()


def test_service_singleton_analytic_stays_scalar(tmp_path):
    svc = CampaignService(
        str(tmp_path / "state"), workers=2, executor="thread"
    )
    svc.submit(_analytic_specs(1)[0])
    report = svc.drain()
    svc.close()
    assert report.sources == {"computed": 1}


def test_service_custom_work_fn_never_batches(tmp_path):
    # batching is gated on the default evaluate_and_store work_fn: a
    # custom fn must see every spec dict individually
    seen = []

    def tracking(spec_dict, store_root):
        seen.append(spec_dict["n_workers"])
        return fake_record(spec_dict)

    specs = _analytic_specs(4)
    with make_service(tmp_path, workers=2, work_fn=tracking) as svc:
        for spec in specs:
            svc.submit(spec)
        report = svc.drain()
    assert report.sources == {"computed": 4}
    assert sorted(seen) == [1, 2, 3, 4]


def test_service_batch_mixes_with_store_hits(tmp_path):
    # second submission wave: everything served from the store, no
    # re-batching of already-answered keys
    specs = _analytic_specs(5)
    state = str(tmp_path / "state")
    svc = CampaignService(state, workers=2, executor="thread")
    for spec in specs:
        svc.submit(spec)
    first = svc.drain()
    svc.close()
    assert first.jobs_completed == 5
    svc2 = CampaignService(state, workers=2, executor="thread")
    for spec in specs:
        svc2.submit(spec)
    second = svc2.drain()
    svc2.close()
    assert second.sources == {"store": 5}


# -- concurrency stress: exactly-once, byte-identical records --------------


def test_service_stress_concurrent_submitters_byte_identical(tmp_path):
    # default work_fn (evaluate_and_store) with the thread executor:
    # real simulations racing on overlapping spec sets
    store_root = str(tmp_path / "state" / "store")
    svc = CampaignService(
        str(tmp_path / "state"), workers=4, executor="thread"
    )
    barrier = threading.Barrier(3)

    def submitter(offset):
        barrier.wait()
        for spec in POOL[offset:] + POOL[:offset]:
            svc.submit(spec)

    threads = [
        threading.Thread(target=submitter, args=(k,)) for k in range(3)
    ]
    for t in threads:
        t.start()
    while any(t.is_alive() for t in threads) or not svc.idle():
        svc.drain(stop_when_idle=True, max_wall_s=0.5)
    for t in threads:
        t.join()
    counts = svc.queue.counts()
    svc.close()
    assert counts["done"] == 9, counts

    # every key simulated exactly once, store records byte-identical
    # to a from-scratch serial evaluation in this process
    computed = [
        j for j in svc.queue.jobs()
        if j.state == "done" and j.source == "computed"
    ]
    assert sorted(j.key for j in computed) == sorted(
        run_key(s) for s in POOL
    )
    store = ResultStore(store_root)
    for spec in POOL:
        key = run_key(spec)
        serial = make_record(
            key, spec.to_dict(), evaluate_spec_dict(spec.to_dict())
        )
        with open(store.path_for(key), "rb") as f:
            assert f.read() == record_bytes(serial)


def pid_recording_work(spec_dict, store_root):
    """The default unit, plus a marker naming the process that ran it."""
    record = evaluate_and_store(spec_dict, store_root)
    pid_dir = os.path.join(os.path.dirname(store_root), "pids")
    os.makedirs(pid_dir, exist_ok=True)
    open(os.path.join(pid_dir, str(os.getpid())), "w").close()
    return record


def test_service_process_pool_matches_thread_pool(tmp_path):
    # the process tier really leaves this process, and what it stores is
    # byte-for-byte what the thread tier stores; its speed is measured by
    # the benchmark, not asserted here
    pool = spec_pool(4, edge_budget=1e5, batch_size=16, n_batches=6)
    pids, records = {}, {}
    for executor in ("thread", "process"):
        state = tmp_path / executor
        with CampaignService(
            str(state), workers=2, executor=executor,
            work_fn=pid_recording_work,
        ) as svc:
            for spec in pool:
                svc.submit(spec)
            report = svc.drain()
        assert report.counts["failed"] == 0
        assert report.jobs_completed == len(pool)
        pids[executor] = {int(p) for p in os.listdir(state / "pids")}
        store = ResultStore(str(state / "store"))
        records[executor] = {}
        for spec in pool:
            with open(store.path_for(run_key(spec)), "rb") as f:
                records[executor][run_key(spec)] = f.read()
    assert pids["thread"] == {os.getpid()}
    assert pids["process"] and os.getpid() not in pids["process"]
    assert records["process"] == records["thread"]


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="no CPU affinity API"
)
def test_place_worker_moves_round_robin_then_restores(monkeypatch):
    # worker i is moved to the i-th allowed CPU, then gets the whole
    # allowed set back (the move is what a non-balancing kernel keeps)
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)
    calls = []
    monkeypatch.setattr(
        os, "sched_setaffinity", lambda pid, mask: calls.append(set(mask))
    )
    ordinals = multiprocessing.Value("i", 0)
    for _ in range(len(cpus) + 1):
        place_worker(ordinals)
    expected = []
    for i in range(len(cpus) + 1):
        expected += [{cpus[i % len(cpus)]}, allowed]
    assert calls == expected
    assert ordinals.value == len(cpus) + 1


# -- traffic generation ----------------------------------------------------


def test_spec_pool_distinct_and_valid():
    pool = spec_pool(9, edge_budget=5e4, batch_size=8, n_batches=2)
    keys = {run_key(s) for s in pool}
    assert len(keys) == 9
    modes = {s.mode for s in pool}
    assert {"event", "sharded", "gids"} <= modes
    with pytest.raises(ConfigError):
        spec_pool(0)


def test_generate_traffic_shape_and_determinism():
    pool = POOL
    a = generate_traffic(50, 100.0, pool, seed=7)
    b = generate_traffic(50, 100.0, pool, seed=7)
    assert [t.arrival_s for t in a] == [t.arrival_s for t in b]
    arrivals = [t.arrival_s for t in a]
    assert arrivals == sorted(arrivals) and arrivals[0] > 0
    shape = traffic_summary(a)
    assert shape["n_jobs"] == 50
    assert 1 <= shape["n_unique_specs"] <= len(pool)
    assert shape["hottest_spec_share"] >= 1.0 / len(pool)
    with pytest.raises(ConfigError):
        generate_traffic(0, 100.0, pool)
    with pytest.raises(ConfigError):
        generate_traffic(5, -1.0, pool)
    with pytest.raises(ConfigError):
        generate_traffic(5, 100.0, [])
    with pytest.raises(ConfigError):
        generate_traffic(5, 100.0, pool, zipf_a=1.0)


def test_service_traffic_experiment_runs():
    from repro.experiments import service_traffic
    from repro.experiments.common import ExperimentConfig

    cfg = ExperimentConfig(
        edge_budget=4e5, batch_size=64, n_workloads=3
    )
    result = service_traffic.run(
        cfg, n_jobs=20, rate_jobs_per_s=400.0, n_specs=3, workers=2
    )
    assert result["jobs_done"] == 20
    assert result["jobs_failed"] == 0
    assert result["served_fraction"] > 0.5
    lat = result["latency_ms"]
    assert lat["p50"] <= lat["p95"] <= lat["p99"]
    assert 0.0 <= result["worker_utilization"] <= 1.0
    assert result["queue_depth_max"] >= 1
    rendered = service_traffic.render(result)
    assert "Service traffic" in rendered
    (record,) = service_traffic._records(result)
    assert record.experiment == "service-traffic"
    assert record.metrics["jobs_done"] == 20.0


# -- CLI -------------------------------------------------------------------


def test_cli_submit_serve_status_roundtrip(tmp_path, capsys):
    from repro.__main__ import main

    state = str(tmp_path / "state")
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(POOL[0].to_dict()))

    assert main(["submit", state, str(spec_path), "--priority", "2"]) == 0
    assert "spooled run:" in capsys.readouterr().out

    assert main(["status", state]) == 0
    assert "1 pending" in capsys.readouterr().out

    assert main([
        "serve", state, "--workers", "1", "--executor", "thread",
        "--once",
    ]) == 0
    out = capsys.readouterr().out
    assert "1 done" in out and "computed" in out

    # identical resubmission is served from the store
    assert main(["submit", state, str(spec_path)]) == 0
    capsys.readouterr()
    assert main([
        "serve", state, "--workers", "1", "--executor", "inline",
        "--once", "--json",
    ]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["counts"]["done"] == 1
    assert report["sources"] == {"store": 1}

    assert main(["status", state, "--json"]) == 0
    status = json.loads(capsys.readouterr().out)
    assert status["counts"]["done"] == 2
    assert status["store"]["entries"] == 1


def test_cli_submit_rejects_bad_spec(tmp_path, capsys):
    from repro.__main__ import main

    bad = tmp_path / "bad.json"
    bad.write_text('{"dataset": "no-such-dataset"}')
    assert main(["submit", str(tmp_path / "state"), str(bad)]) == 1
    assert "error" in capsys.readouterr().err
    missing = tmp_path / "missing.json"
    assert main(["submit", str(tmp_path / "state"), str(missing)]) == 1


def test_cli_serve_reports_failures(tmp_path, capsys):
    from repro.__main__ import main

    state = str(tmp_path / "state")
    Spool(os.path.join(state, "spool")).append({"dataset": "nope"})
    assert main([
        "serve", state, "--workers", "1", "--executor", "inline",
        "--once",
    ]) == 1
    assert "1 failed" in capsys.readouterr().out
