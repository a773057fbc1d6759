"""The topology engine partitions each graph once per process.

A graph's cut depends only on the graph and the cut parameters, so
:func:`repro.pipeline.engine._graph_cut` memoizes it per graph, weakly
keyed.  These tests pin the three things that memo must never change:
warm reruns make no partition calls and still produce fresh-session
records, different cut parameters never share an entry, and dropping a
graph frees its cuts.
"""

import gc
import threading
import weakref

import pytest

import repro.distributed.planner as planner
import repro.pipeline.engine as engine
from repro.api import RunSpec, Session, SystemSpec
from repro.api.cache import ContentCache, activated
from repro.service.store import record_bytes, result_to_dict


def _spec(mode, seed=0, **system):
    return RunSpec(
        dataset="reddit", edge_budget=3e5, batch_size=24, n_workloads=5,
        n_batches=8, n_workers=2, mode=mode, seed=seed,
        system=SystemSpec(design="smartsage-sharded", **system),
    )


def _record(result) -> bytes:
    return record_bytes(result_to_dict(result))


def _fresh(spec) -> bytes:
    """The record of ``spec`` on a graph of its own."""
    return _record(Session(spec).run())


@pytest.fixture
def cut_calls(monkeypatch):
    """Counts every ``partition_graph``/``plan_hosts`` call the engine
    and the host planner make."""
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(engine, "partition_graph", counting(
        "partition_graph", engine.partition_graph))
    monkeypatch.setattr(planner, "partition_graph", counting(
        "partition_graph", planner.partition_graph))
    monkeypatch.setattr(planner, "plan_hosts", counting(
        "plan_hosts", planner.plan_hosts))
    return calls


@pytest.mark.parametrize("mode, system", [
    ("sharded", {"n_shards": 2}),
    ("distributed", {"n_hosts": 2, "n_shards": 2}),
    ("distributed-analytic", {"n_hosts": 2, "n_shards": 2}),
])
def test_second_run_makes_no_partition_calls(mode, system, cut_calls):
    spec = _spec(mode, seed=11, **system)
    session = Session(spec)
    first = _record(session.run())
    assert cut_calls, "the first run on a graph must build its cut"
    del cut_calls[:]
    second = _record(session.run())
    assert cut_calls == []
    assert first == second == _fresh(spec)


def test_distinct_cut_keys_do_not_collide():
    specs = [
        _spec("sharded", n_shards=2),
        _spec("sharded", n_shards=4),
        _spec("sharded", n_shards=2, partition="hash"),
        _spec("distributed", n_shards=2),   # H=1, K=2: hosts axis
    ]
    with activated(ContentCache()):
        sessions = [Session(s) for s in specs]
        graph = sessions[0].dataset.graph
        assert all(s.dataset.graph is graph for s in sessions)
        shared = [_record(s.run()) for s in sessions]
        assert len(engine._CUTS[graph]) == len(specs)
    assert shared == [_fresh(s) for s in specs]


def test_memo_entry_is_freed_with_its_graph():
    session = Session(_spec("distributed", n_hosts=2, n_shards=2))
    session.run()
    graph = weakref.ref(session.dataset.graph)
    assert graph() in engine._CUTS
    n_graphs = len(engine._CUTS)
    del session
    gc.collect()
    assert graph() is None
    assert len(engine._CUTS) == n_graphs - 1


def test_threads_sharing_a_graph_match_serial_records():
    specs = [_spec("sharded", n_shards=k) for k in (2, 4)]
    serial = [_fresh(s) for s in specs]
    n_threads = 2
    records = [None] * n_threads

    with activated(ContentCache()):
        # each thread runs both specs on its own sessions, in its own
        # order, so the threads race for both cuts of one graph
        sessions = [[Session(s) for s in specs] for _ in range(n_threads)]
        graphs = {id(s.dataset.graph) for row in sessions for s in row}
        assert len(graphs) == 1
        barrier = threading.Barrier(n_threads)

        def run(i):
            order = range(len(specs))
            if i % 2:
                order = reversed(order)
            barrier.wait()
            out = {j: _record(sessions[i][j].run()) for j in order}
            records[i] = [out[j] for j in range(len(specs))]

        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    assert records == [serial] * n_threads
