"""Per-workload plans are built once per process.

A warm session replays the same read-only workloads on every run, so
what an engine derives from a workload and a graph alone is memoized by
:func:`repro.core.accounting.workload_plan`: the ISP command's page set
(``SubgraphGenerator.span_pages``), the GIDS hop reads
(``GIDSSamplingEngine._reads``), the GIDS feature pages
(``GIDSFeatureEngine._pages``) and the cross-group and cross-host
traffic of a graph cut (``pipeline.engine._remote_parts`` and
``_host_traffic``).  These tests pin what that memo must never change:
warm reruns build nothing and still produce fresh-session records,
different layouts never share an entry, shared arrays are read-only,
and threads racing for one entry build it once.
"""

import threading

import numpy as np
import pytest

import repro.core.accounting as accounting
import repro.distributed.planner as planner
from repro.api import RunSpec, Session, SystemSpec
from repro.api.cache import ContentCache, activated
from repro.core.gids_designs import GIDSFeatureEngine, GIDSSamplingEngine
from repro.graph.layout import EdgeListLayout
from repro.graph.partition import GraphPartition
from repro.service.store import record_bytes, result_to_dict

#: (mode, design, system overrides, run overrides) of each event-driven
#: preset; together they reach every memoized plan
PRESETS = {
    "event": ("event", "smartsage-hwsw", {}, {}),
    "sharded": ("sharded", "smartsage-sharded", {"n_shards": 2}, {}),
    "gids": ("gids", "gids-cached", {}, {}),
    "async": ("async", "smartsage-hwsw", {}, {"prefetch_depth": 3}),
    "distributed": ("distributed", "smartsage-sharded",
                    {"n_shards": 2, "n_hosts": 2}, {}),
}


def _spec(preset, seed=0, **system):
    mode, design, sys_over, run_over = PRESETS[preset]
    return RunSpec(
        dataset="reddit", edge_budget=3e5, batch_size=24, n_workloads=5,
        n_batches=8, n_workers=2, mode=mode, seed=seed,
        system=SystemSpec(design=design, **{**sys_over, **system}),
        **run_over,
    )


def _record(result) -> bytes:
    return record_bytes(result_to_dict(result))


def _fresh(spec) -> bytes:
    """The record of ``spec`` on a graph and workloads of its own."""
    return _record(Session(spec).run())


@pytest.fixture
def builds(monkeypatch):
    """Counts the pure passes behind each memoized plan, by name."""
    calls = []

    def counting(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counting(EdgeListLayout, "flash_page_ids")
    counting(GIDSSamplingEngine, "_hop_reads")
    counting(GIDSFeatureEngine, "_batch_pages")
    counting(GraphPartition, "remote_mask")
    counting(planner, "host_workload_traffic")
    return calls


#: the passes each preset's first run must make
FIRST_RUN = {
    "event": {"flash_page_ids"},
    "sharded": {"flash_page_ids", "remote_mask"},
    "gids": {"_hop_reads", "_batch_pages"},
    "async": {"flash_page_ids"},
    "distributed": {"flash_page_ids", "remote_mask",
                    "host_workload_traffic"},
}


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_warm_rerun_builds_no_plan(preset, builds):
    spec = _spec(preset, seed=5)
    session = Session(spec)
    first = _record(session.run())
    assert set(builds) == FIRST_RUN[preset]
    del builds[:]
    second = _record(session.run())
    assert builds == []
    assert first == second == _fresh(spec)


def _plans(graph, workload) -> dict:
    return accounting._PLANS[graph][workload]


@pytest.mark.parametrize("preset, variants", [
    ("event", [{"granularity": 4}, {"granularity": None}]),
    ("event", [{}, {"hardware": {"nand": {"page_bytes": 8192}}}]),
    ("event", [{}, {"hardware": {"workload": {"edge_id_bytes": 4}}}]),
    ("gids", [{}, {"hardware": {"workload": {"edge_id_bytes": 4}}}]),
    ("sharded", [{}, {"hardware": {"workload": {"edge_id_bytes": 4}}}]),
    ("gids", [{}, {"hardware": {"workload": {"feature_dtype_bytes": 2}}}]),
])
def test_distinct_layouts_do_not_share_an_entry(preset, variants):
    specs = [_spec(preset, **v) for v in variants]
    with activated(ContentCache()):
        sessions = [Session(s) for s in specs]
        graph = sessions[0].dataset.graph
        # the last workload is planned by every preset (the first ones
        # may only warm the systems up)
        workload = sessions[0].workloads[-1]
        assert all(s.dataset.graph is graph for s in sessions)
        assert all(s.workloads[-1] is workload for s in sessions)
        shared = []
        for s in sessions:
            n_before = len(_plans(graph, workload)) if shared else 0
            shared.append(_record(s.run()))
            # every variant adds entries of its own
            assert len(_plans(graph, workload)) > n_before
    assert shared == [_fresh(s) for s in specs]
    assert shared[0] != shared[1]


def _arrays(value):
    """Every ndarray a plan holds (tuples and frozen records)."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _arrays(item)
    elif hasattr(value, "__dataclass_fields__"):
        for name in value.__dataclass_fields__:
            yield from _arrays(getattr(value, name))


def test_memoized_arrays_are_read_only():
    with activated(ContentCache()):
        sessions = [Session(_spec(p)) for p in PRESETS]
        for s in sessions:
            s.run()
        graph = sessions[0].dataset.graph
        # the first workloads only warm the systems up; the last one
        # is planned by every preset
        workload = sessions[0].workloads[-1]
        plans = _plans(graph, workload)
    kinds = {key[0] for key in plans}
    assert kinds == {"isp-pages", "gids-reads", "gids-pages", "remote",
                     "host"}
    arrays = [a for plan in plans.values() for a in _arrays(plan)]
    assert arrays
    assert not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        arrays[0][...] = 0


def test_threads_build_each_entry_once(builds):
    specs = [_spec(p, seed=3) for p in ("event", "gids", "distributed")]
    serial = [_fresh(s) for s in specs]
    del builds[:]
    n_threads = 2
    records = [None] * n_threads

    with activated(ContentCache()):
        sessions = [[Session(s) for s in specs] for _ in range(n_threads)]
        graph = sessions[0][0].dataset.graph
        workloads = sessions[0][0].workloads
        barrier = threading.Barrier(n_threads)

        def run(i):
            barrier.wait()
            records[i] = [_record(s.run()) for s in sessions[i]]

        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        entries = [key[0] for w in workloads for key in _plans(graph, w)]
    assert records == [serial] * n_threads
    assert builds.count("flash_page_ids") == entries.count("isp-pages")
    # one _hop_reads call per hop of each workload's one GIDS entry
    n_hops = sum(len(w.hop_targets) for w in workloads)
    assert entries.count("gids-reads") == len(workloads)
    assert builds.count("_hop_reads") == n_hops
    assert builds.count("_batch_pages") == entries.count("gids-pages")
    assert builds.count("host_workload_traffic") == entries.count("host")
