"""Graph reuse in service workers: the bounded content cache and the
on-disk CSR store (repro.graph.store) must never change a record."""

import os

import numpy as np
import pytest

from repro.api.cache import (
    ContentCache,
    activated,
    active_cache,
    artifact_nbytes,
)
from repro.api.batcheval import evaluate_sessions
from repro.api.session import Session, scaled_dataset
from repro.api.spec import RunSpec
from repro.errors import ConfigError
from repro.graph.datasets import DatasetSpec
from repro.graph.store import GraphStore
from repro.service.server import CampaignService
from repro.service.store import (
    ResultStore,
    make_record,
    record_bytes,
    result_to_dict,
    run_key,
)
from repro.service.traffic import spec_pool
from repro.service.worker import WORKER_CACHE_BYTES, evaluate_and_store

#: one spec per template: event (twice), analytic, sharded, async, gids
#: and distributed, on reddit at four dataset seeds
POOL = spec_pool(7, edge_budget=5e4, batch_size=8, n_batches=2)

#: analytic specs the batched evaluator answers in one pass
BATCH = [
    RunSpec.from_dict({**POOL[2].to_dict(), "n_workers": w})
    for w in (1, 2, 3)
]


def _records():
    """Every template's record bytes, scalar and batched."""
    out = [record_bytes(evaluate_and_store(s.to_dict())) for s in POOL]
    batch = evaluate_sessions([Session(s) for s in BATCH])
    out += [
        record_bytes(
            make_record(run_key(s), s.to_dict(), result_to_dict(result))
        )
        for s, result in zip(BATCH, batch)
    ]
    return out


def _pairs(root):
    names = sorted(os.listdir(root))
    return (
        [n for n in names if n.endswith(".indptr.npy")],
        [n for n in names if n.endswith(".indices.npy")],
    )


def _worker_cache(root):
    return ContentCache(
        max_bytes=WORKER_CACHE_BYTES, graph_store=GraphStore(str(root))
    )


@pytest.fixture(scope="module")
def reference():
    """Inline evaluation: no cache, every graph generated per job."""
    assert active_cache() is None
    return _records()


def test_records_identical_generated_cached_or_mapped(
    tmp_path, monkeypatch, reference
):
    graphs = tmp_path / "graphs"
    with activated(_worker_cache(graphs)) as cache:
        generated = _records()
        assert cache.misses and cache.hits  # jobs shared datasets
        memory = _records()
    indptr, indices = _pairs(graphs)
    assert len(indptr) == len(indices) == len({s.seed for s in POOL})

    # a fresh worker (a rebuilt pool) maps every graph from the store
    def no_generation(*args, **kwargs):
        raise AssertionError("graph generated despite a stored copy")

    monkeypatch.setattr(DatasetSpec, "instantiate", no_generation)
    with activated(_worker_cache(graphs)):
        mapped = _records()
        graph = scaled_dataset("reddit", 5e4, seed=POOL[0].seed).graph
        assert isinstance(graph.indices.base, np.memmap)
        assert type(graph.indices) is np.ndarray
        assert graph.indices.dtype == np.int32
    assert generated == memory == mapped == reference


def test_bounded_cache_evicts_and_keeps_records(reference):
    one_graph = artifact_nbytes(scaled_dataset("reddit", 5e4).graph)
    with activated(ContentCache(max_bytes=one_graph)) as cache:
        bounded = _records()
        assert cache.evictions > 0
        assert len(cache) >= 1
    with activated(ContentCache()) as cache:
        unbounded = _records()
        assert cache.evictions == 0
    assert bounded == unbounded == reference


def test_cache_budget_evicts_least_recently_used():
    arr = np.zeros(100, dtype=np.uint8)
    cache = ContentCache(max_bytes=250)
    for key in ("a", "b"):
        cache.get_or_build(key, lambda: arr.copy())
    cache.get_or_build("a", lambda: None)  # a hit refreshes "a"
    cache.get_or_build("c", lambda: arr.copy())
    assert "a" in cache and "c" in cache and "b" not in cache
    assert cache.evictions == 1 and cache.nbytes == 200
    # the newest artifact stays even when it alone is over budget
    cache.get_or_build("big", lambda: np.zeros(1000, dtype=np.uint8))
    assert "big" in cache and len(cache) == 1
    with pytest.raises(ConfigError):
        ContentCache(max_bytes=-1)


def test_artifact_nbytes_counts_each_array_once():
    arr = np.zeros(10, dtype=np.int64)
    assert artifact_nbytes([arr, (arr, {"x": arr})]) == 80
    ds = scaled_dataset("reddit", 5e4)
    graph = ds.graph
    assert artifact_nbytes(ds) >= graph.indptr.nbytes + graph.indices.nbytes


def _one_stored_graph(root):
    """Generate POOL[0]'s dataset into the store at ``root``."""
    with activated(_worker_cache(root)):
        evaluate_and_store(POOL[0].to_dict())
    (indptr,), (indices,) = _pairs(root)
    return os.path.join(root, indptr), os.path.join(root, indices)


CORRUPTIONS = {
    "truncated-indptr": ("indptr", lambda blob: blob[: len(blob) // 2]),
    "garbage-indices": ("indices", lambda blob: os.urandom(len(blob))),
    "empty-indptr": ("indptr", lambda blob: b""),
    "wrong-shape": ("indices", None),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_damaged_store_file_is_a_miss(tmp_path, case, reference):
    root = str(tmp_path / "graphs")
    paths = dict(zip(("indptr", "indices"), _one_stored_graph(root)))
    part, damage = CORRUPTIONS[case]
    intact = open(paths[part], "rb").read()
    if damage is None:
        np.save(paths[part], np.zeros(7, dtype=np.int32))
    else:
        with open(paths[part], "wb") as f:
            f.write(damage(intact))
    with activated(_worker_cache(root)):
        record = evaluate_and_store(POOL[0].to_dict())
    assert record_bytes(record) == reference[0]
    # regenerated and rewritten: the file is whole again
    assert open(paths[part], "rb").read() == intact


def test_service_worker_regenerates_a_damaged_graph(tmp_path, reference):
    state = tmp_path / "state"
    root = str(state / "graphs")
    indptr, _ = _one_stored_graph(root)
    intact = open(indptr, "rb").read()
    with open(indptr, "wb") as f:
        f.write(b"\x93NUMPY garbage")
    with CampaignService(str(state), workers=1, executor="process") as svc:
        svc.submit(POOL[0])
        report = svc.drain()
    assert report.counts["failed"] == 0 and report.jobs_completed == 1
    with open(svc.store.path_for(run_key(POOL[0])), "rb") as f:
        assert f.read() == reference[0]
    assert open(indptr, "rb").read() == intact


def test_process_pool_workers_share_graphs_through_the_store(
    tmp_path, reference
):
    # pass 1 fills the store; pass 2, on a rebuilt pool, runs specs
    # that differ from pass 1's only in their batch count
    state = str(tmp_path / "state")
    with CampaignService(state, workers=2, executor="process") as svc:
        for spec in POOL:
            svc.submit(spec)
        assert svc.drain().counts["failed"] == 0
    indptr, indices = _pairs(os.path.join(state, "graphs"))
    assert len(indptr) == len(indices) == len({s.seed for s in POOL})
    again = [
        RunSpec.from_dict({**s.to_dict(), "n_batches": 3}) for s in POOL
    ]
    with CampaignService(state, workers=2, executor="process") as svc:
        for spec in again:
            svc.submit(spec)
        assert svc.drain().counts["failed"] == 0
    assert _pairs(os.path.join(state, "graphs")) == (indptr, indices)
    store = ResultStore(os.path.join(state, "store"))
    inline = reference[: len(POOL)] + [
        record_bytes(evaluate_and_store(s.to_dict())) for s in again
    ]
    for spec, want in zip(POOL + again, inline):
        with open(store.path_for(run_key(spec)), "rb") as f:
            assert f.read() == want


# -- pruning the graph store ------------------------------------------------


def test_prune_bounds_the_graph_store_and_its_temp_files(tmp_path):
    state = tmp_path / "state"
    root = str(state / "graphs")
    indptr, indices = _one_stored_graph(root)
    pair = os.path.getsize(indptr) + os.path.getsize(indices)
    leftover = os.path.join(root, ".tmp-killed.npy")
    with open(leftover, "wb") as f:
        f.write(b"x" * 10)
    os.utime(leftover, (1.0, 1.0))  # a killed writer's, long ago
    store = ResultStore(str(state / "store"), graph_root=root)
    store.put(evaluate_and_store(POOL[0].to_dict()))
    summary = store.prune(max_bytes=pair + 10)
    assert summary["deleted"] == 0
    assert summary["graphs"]["entries_before"] == 2
    assert summary["graphs"]["deleted"] == 0
    summary = store.prune(max_bytes=pair - 1)
    graphs = summary["graphs"]
    assert graphs["deleted"] == 2 and graphs["entries_after"] == 0
    assert graphs["deleted_bytes"] == pair + 10
    assert os.listdir(root) == []
    assert summary["deleted"] == 0 and len(store) == 1


def test_prune_ttl_expires_old_graphs(tmp_path):
    root = str(tmp_path / "graphs")
    indptr, indices = _one_stored_graph(root)
    for path in (indptr, indices):
        os.utime(path, (1.0, 1.0))
    store = ResultStore(str(tmp_path / "store"), graph_root=root)
    summary = store.prune(ttl=3600.0)
    assert summary["graphs"]["deleted"] == 1
    assert os.listdir(root) == []


def test_status_prune_cli_reports_the_graph_store(tmp_path, capsys):
    from repro.__main__ import main

    state = tmp_path / "state"
    _one_stored_graph(str(state / "graphs"))
    assert main(["status", str(state), "--prune",
                 "--max-store-bytes", "0"]) == 0
    out = capsys.readouterr().out
    assert "graphs:  1 pruned" in out
    assert os.listdir(state / "graphs") == []


def test_concurrent_writers_and_readers_of_one_key(tmp_path):
    # more threads than cores race saves and loads of one key: a load
    # sees a miss or the whole graph, never a mix or an error
    import threading
    import time

    graph = scaled_dataset("reddit", 5e4).graph
    shape = (graph.num_nodes, graph.num_edges)
    store = GraphStore(str(tmp_path / "graphs"))
    stop = time.monotonic() + 1.0
    problems = []

    def hammer(i):
        while time.monotonic() < stop:
            if i % 2:
                store.save("dataset:race", graph)
                continue
            got = store.load("dataset:race", *shape)
            if got is not None and not (
                np.array_equal(got.indptr, graph.indptr)
                and np.array_equal(got.indices, graph.indices)
            ):
                problems.append("mixed graph")

    threads = [
        threading.Thread(target=hammer, args=(i,))
        for i in range(2 * (os.cpu_count() or 1) + 2)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert problems == []
    assert store.load("dataset:race", *shape) is not None
    assert [e[2] for e in store.entries()] == [(
        store.path_for("dataset:race", "indptr"),
        store.path_for("dataset:race", "indices"),
    )]
