"""Parity tests: every vectorized hot-path kernel against its scalar
reference.  The BENCH numbers only mean something if both paths produce
bit-identical simulated results, so these tests compare hit/miss
counts, returned arrays, *and* the mutated cache/LRU state (which is
what future batches observe)."""

import numpy as np
import pytest

from repro.config import LLCParams
from repro.errors import ConfigError
from repro.graph.csr import CSRGraph
from repro.gnn.sampler import FrontierDedup, NeighborSampler
from repro.host.pagecache import OSPageCache
from repro.memory.llc import CacheSim
from repro.perf.reference import (
    ReferenceSimulator,
    apply_remap_scalar,
    event_grants,
    fault_around_windows_scalar,
)
from repro.sim.engine import Simulator, all_of
from repro.sim.resources import Resource
from repro.storage.controller import FlashController
from repro.storage.ftl import FlashTranslationLayer
from repro.storage.nand import FlashArray
from repro.storage.pagebuffer import PageBuffer

KIB = 1024


# -- LLC ------------------------------------------------------------------


@pytest.mark.parametrize(
    "capacity,ways,domain",
    [
        (8 * KIB, 2, 64 * KIB),        # small cache, heavy conflict
        (2 * 64 * 4, 2, 4 * 64 * 40),  # 4 sets only (skewed depth)
        (64 * KIB, 16, 4 * KIB),       # working set fits
        (512 * KIB, 8, 1 << 26),       # many sets, sparse reuse
    ],
)
def test_llc_vectorized_matches_scalar(capacity, ways, domain):
    params = LLCParams(capacity_bytes=capacity, ways=ways, line_bytes=64)
    vec, ref = CacheSim(params), CacheSim(params)
    rng = np.random.default_rng(0)
    for _ in range(3):
        trace = rng.integers(0, domain, size=1500)
        s_vec = vec.run_trace(trace, method="vectorized")
        s_ref = ref.run_trace_scalar(trace)
        assert (s_vec.hits, s_vec.misses) == (s_ref.hits, s_ref.misses)
    # identical internal state => identical future behaviour
    assert np.array_equal(vec._tags, ref._tags)
    assert np.array_equal(vec._used, ref._used)
    assert vec._tick == ref._tick


def test_llc_trace_interleaves_with_scalar_access():
    params = LLCParams(capacity_bytes=16 * KIB, ways=4, line_bytes=64)
    vec, ref = CacheSim(params), CacheSim(params)
    rng = np.random.default_rng(1)
    for _ in range(4):
        trace = rng.integers(0, 128 * KIB, size=600)
        vec.run_trace(trace, method="vectorized")
        ref.run_trace_scalar(trace)
        for addr in rng.integers(0, 128 * KIB, size=40):
            assert vec.access(int(addr)) == ref.access(int(addr))
    assert vec.stats.hits == ref.stats.hits
    assert vec.stats.misses == ref.stats.misses


def test_llc_auto_dispatch_preserves_stats():
    params = LLCParams(capacity_bytes=8 * KIB, ways=2, line_bytes=64)
    auto, ref = CacheSim(params), CacheSim(params)
    rng = np.random.default_rng(2)
    # tiny trace (scalar route) then a large one (vectorized route)
    for size in (20, 3000):
        trace = rng.integers(0, 1 << 22, size=size)
        s_auto = auto.run_trace(trace)
        s_ref = ref.run_trace_scalar(trace)
        assert (s_auto.hits, s_auto.misses) == (s_ref.hits, s_ref.misses)


# -- exact-LRU caches ------------------------------------------------------


def test_pagecache_access_batch_counts_hits():
    cache = OSPageCache(4096 * 64)
    pages = np.array([1, 2, 1, 3, 2, 2], dtype=np.int64)
    assert cache.hit_mask(pages).sum() == 3
    assert cache.hits == 3 and cache.misses == 3


def test_pagebuffer_accepts_plain_iterables():
    buf = PageBuffer(16)
    buf.hit_mask([1, 2, 1])
    assert (buf.hits, buf.misses) == (1, 2)


# -- flash controller / FTL ------------------------------------------------


def test_plan_extents_bit_identical_to_plan_extent_loop():
    batch_ctl = FlashController(FlashArray())
    loop_ctl = FlashController(FlashArray())
    rng = np.random.default_rng(7)
    sizes = rng.integers(0, 300_000, size=700).astype(np.int64)
    sizes[::13] = 0  # zero-length extents are legal
    plan = batch_ctl.plan_extents(sizes)
    ref = [loop_ctl.plan_extent(int(s)) for s in sizes]
    assert np.array_equal(plan.n_pages, [p.n_pages for p in ref])
    # float times must match bit-for-bit (same IEEE op order)
    assert np.array_equal(
        plan.flash_time_qd1_s, [p.flash_time_qd1_s for p in ref]
    )
    assert np.array_equal(
        plan.bytes_from_flash, [p.bytes_from_flash for p in ref]
    )
    assert batch_ctl.extents_read == loop_ctl.extents_read
    assert batch_ctl.nand.pages_read == loop_ctl.nand.pages_read
    assert plan.n_extents == sizes.size
    assert plan.total_pages == sum(p.n_pages for p in ref)
    assert plan[5].n_pages == ref[5].n_pages


def test_plan_extents_rejects_negative():
    ctl = FlashController(FlashArray())
    from repro.errors import StorageError

    with pytest.raises(StorageError):
        ctl.plan_extents(np.array([4096, -1]))


def test_lpns_for_extents_matches_scalar():
    ctl = FlashController(FlashArray())
    rng = np.random.default_rng(8)
    lbas = rng.integers(0, 1 << 20, size=300).astype(np.int64)
    counts = rng.integers(0, 50, size=300).astype(np.int64)
    counts[::7] = 0
    lpns, offsets = ctl.lpns_for_extents(lbas, counts)
    ref = [ctl.lpns_for_extent(int(l), int(c)) for l, c in zip(lbas, counts)]
    assert np.array_equal(lpns, np.concatenate(ref))
    assert np.array_equal(np.diff(offsets), [r.size for r in ref])
    for i in (0, 7, 150):
        assert np.array_equal(lpns[offsets[i]: offsets[i + 1]], ref[i])


def test_ftl_vectorized_remap_matches_scalar():
    fast = FlashTranslationLayer(50_000, seed=9)
    ref = FlashTranslationLayer(50_000, seed=9)
    rng = np.random.default_rng(9)
    for lpn in rng.integers(0, 50_000, size=40).tolist():
        fast.rewrite(lpn)
        ref.rewrite(lpn)
    lpns = rng.integers(0, 50_000, size=5000).astype(np.int64)
    out_fast = fast.translate(lpns)
    out_ref = apply_remap_scalar(ref, lpns, ref.permute(lpns))
    assert np.array_equal(out_fast, out_ref)
    # a fresh rewrite invalidates the sorted-key cache
    fast.rewrite(int(lpns[0]))
    assert fast.translate_one(int(lpns[0])) == fast._remap[int(lpns[0])]


# -- sampler dedup + CSR degrees ------------------------------------------


def _random_graph(rng, n_nodes=2000, n_edges=30_000):
    return CSRGraph.from_edges(
        rng.integers(0, n_nodes, size=n_edges),
        rng.integers(0, n_nodes, size=n_edges),
        num_nodes=n_nodes,
    )


def test_frontier_dedup_equals_np_unique():
    rng = np.random.default_rng(10)
    dedup = FrontierDedup(5000)
    for size in (0, 1, 17, 4000):
        values = rng.integers(0, 5000, size=size).astype(np.int64)
        uniq, inverse = dedup(values)
        ref_uniq, ref_inverse = np.unique(values, return_inverse=True)
        assert np.array_equal(uniq, ref_uniq)
        assert np.array_equal(inverse, ref_inverse)
    with pytest.raises(ConfigError):
        FrontierDedup(0)


def test_sampler_dedup_kernels_agree():
    rng = np.random.default_rng(11)
    graph = _random_graph(rng)
    seeds = rng.choice(graph.num_nodes, size=64, replace=False)
    for replace in (True, False):
        batches = []
        for dedup in ("table", "sorted", "auto"):
            sampler = NeighborSampler(
                graph, fanouts=(8, 5), replace=replace,
                record_positions=True, dedup=dedup,
            )
            batches.append(
                sampler.sample_batch(seeds, np.random.default_rng(99))
            )
        ref = batches[-1]
        for batch in batches[:-1]:
            assert batch.hop_samples == ref.hop_samples
            assert np.array_equal(
                batch.sampled_positions, ref.sampled_positions
            )
            for blk, ref_blk in zip(batch.blocks, ref.blocks):
                assert np.array_equal(blk.src, ref_blk.src)
                assert np.array_equal(blk.dst, ref_blk.dst)
                assert np.array_equal(blk.edge_src, ref_blk.edge_src)
                assert np.array_equal(blk.edge_dst, ref_blk.edge_dst)


def test_sampler_rejects_unknown_dedup():
    rng = np.random.default_rng(12)
    with pytest.raises(ConfigError):
        NeighborSampler(_random_graph(rng), dedup="bogus")


def test_csr_degrees_memoized_and_correct():
    rng = np.random.default_rng(13)
    graph = _random_graph(rng)
    degs = graph.degrees()
    assert np.array_equal(degs, np.diff(graph.indptr))
    assert graph.degrees() is degs  # memoized
    assert not degs.flags.writeable
    nodes = rng.integers(0, graph.num_nodes, size=50)
    assert np.array_equal(
        graph.degrees(nodes),
        graph.indptr[nodes + 1] - graph.indptr[nodes],
    )


# -- event engine ----------------------------------------------------------


def _contended_workload(sim, log):
    resource = Resource(sim, capacity=3, name="r")
    rng = np.random.default_rng(14)
    delays = rng.integers(0, 4, size=(12, 25)) * 1e-6

    def proc(pid):
        for k in range(25):
            yield sim.timeout(float(delays[pid, k]))
            log.append(("wake", pid, k, sim.now))
            yield resource.acquire()
            try:
                yield sim.timeout(1e-6)
            finally:
                resource.release()
            log.append(("done", pid, k, sim.now))
            if k % 5 == 0:
                yield None

    procs = [sim.process(proc(i), name=f"p{i}") for i in range(12)]
    return all_of(sim, procs)


def test_engine_coalescing_preserves_dispatch_order():
    logs = {}
    for sim_cls in (Simulator, ReferenceSimulator):
        sim = sim_cls()
        log = []
        _contended_workload(sim, log)
        sim.run()
        logs[sim_cls] = (log, sim.now, sim.processed_events)
    assert logs[Simulator] == logs[ReferenceSimulator]


def test_engine_coalescing_run_until_boundary():
    for sim_cls in (Simulator, ReferenceSimulator):
        sim = sim_cls()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.schedule(2.0, lambda: fired.append(3))
        assert sim.run(until=1.5) == 1.5
        assert fired == [1]
        assert sim.run() == 2.0
        assert fired == [1, 2, 3]


def test_engine_coalescing_same_time_reentry():
    # events scheduled at the *current* time from inside a dispatch must
    # run after the currently draining bucket, in schedule order
    for sim_cls in (Simulator, ReferenceSimulator):
        sim = sim_cls()
        order = []

        def outer(_ev):
            order.append("outer")
            inner = sim.event()
            inner.add_callback(lambda _e: order.append("inner"))
            inner.succeed()

        first = sim.event()
        first.add_callback(outer)
        second = sim.event()
        second.add_callback(lambda _e: order.append("second"))
        first.succeed()
        second.succeed()
        sim.run()
        assert order == ["outer", "second", "inner"]


# -- without-replacement sampler (batched key top-k vs per-row loop) -------


def _noreplace_graph(n_nodes=1500, n_edges=20000, seed=3):
    rng = np.random.default_rng(seed)
    return CSRGraph.from_edges(
        rng.integers(0, n_nodes, size=n_edges),
        rng.integers(0, n_nodes, size=n_edges),
        num_nodes=n_nodes,
    ), rng


@pytest.mark.parametrize("fanout", [1, 5, 10, 40])
def test_sampler_noreplace_batched_matches_scalar_structure(fanout):
    """Offsets/counts are bit-identical; rows whose degree fits the
    fanout return identical samples *and* positions; sampled rows draw
    valid, duplicate-free subsets of their own extent."""
    graph, rng = _noreplace_graph()
    targets = rng.integers(0, graph.num_nodes, size=400)
    s_b, o_b, p_b = graph.sample_neighbors(
        targets, fanout, np.random.default_rng(1), replace=False,
        return_positions=True, method="batched",
    )
    s_s, o_s, p_s = graph.sample_neighbors(
        targets, fanout, np.random.default_rng(1), replace=False,
        return_positions=True, method="scalar",
    )
    assert np.array_equal(o_b, o_s)
    assert s_b.size == s_s.size and p_b.size == p_s.size
    degs = graph.degrees(targets)
    for i in range(targets.size):
        lo, hi = int(o_b[i]), int(o_b[i + 1])
        assert hi - lo == min(int(degs[i]), fanout)
        row_pos = p_b[lo:hi]
        if degs[i] <= fanout:
            assert np.array_equal(s_b[lo:hi], s_s[lo:hi])
            assert np.array_equal(row_pos, p_s[lo:hi])
        assert len(set(row_pos.tolist())) == hi - lo  # no duplicates
        assert np.all(row_pos >= graph.indptr[targets[i]])
        assert np.all(row_pos < graph.indptr[targets[i] + 1])
        assert np.array_equal(graph.indices[row_pos], s_b[lo:hi])


def test_sampler_noreplace_deterministic_and_auto_is_batched():
    graph, rng = _noreplace_graph()
    targets = rng.integers(0, graph.num_nodes, size=200)
    draws = [
        graph.sample_neighbors(
            targets, 8, np.random.default_rng(7), replace=False,
            method=method,
        )
        for method in ("auto", "batched", "auto")
    ]
    for samples, offsets in draws[1:]:
        assert np.array_equal(samples, draws[0][0])
        assert np.array_equal(offsets, draws[0][1])


def test_sampler_noreplace_edge_cases():
    graph, _ = _noreplace_graph(n_nodes=50, n_edges=0)
    rng = np.random.default_rng(0)
    for method in ("batched", "scalar"):
        samples, offsets = graph.sample_neighbors(
            np.arange(10), 5, rng, replace=False, method=method
        )
        assert samples.size == 0
        assert offsets.tolist() == [0] * 11
    from repro.errors import GraphError

    with pytest.raises(GraphError, match="method"):
        graph.sample_neighbors(
            np.arange(2), 5, rng, replace=False, method="quantum"
        )


# -- mmap fault-around windows (ceil-div kernel vs loop) --------------------


def test_fault_around_windows_bit_identical():
    from repro.host.mmap_io import fault_around_windows

    rng = np.random.default_rng(0)
    for _ in range(100):
        window = int(rng.integers(1, 9))
        misses = rng.integers(0, 40, size=int(rng.integers(0, 60)))
        assert np.array_equal(
            fault_around_windows(misses, window),
            fault_around_windows_scalar(misses, window),
        )
    # degenerate shapes
    assert fault_around_windows(np.empty(0, dtype=np.int64), 4).size == 0
    assert fault_around_windows(np.zeros(5, dtype=np.int64), 4).size == 0
    assert fault_around_windows(np.array([9]), 4).tolist() == [4, 4, 1]


def test_plan_extents_uses_vectorized_windows():
    """MmapReader.plan_extents emits the same window stream the scalar
    loop produced (the reader's cache state feeds both plans)."""
    from repro.config import HardwareParams
    from repro.host.mmap_io import MmapReader
    from repro.host.pagecache import OSPageCache
    from repro.host.syscall import HostSoftware
    from repro.storage.ssd import SSDevice

    hw = HardwareParams()
    rng = np.random.default_rng(2)

    def reader():
        return MmapReader(
            SSDevice(hw),
            OSPageCache(64 * 4096, 4096),
            HostSoftware(),
            fault_around_pages=4,
        )

    vec, ref = reader(), reader()
    for _ in range(4):
        first = rng.integers(0, 4096, size=200).astype(np.int64)
        counts = rng.integers(0, 12, size=200).astype(np.int64)
        hits_v, windows_v = vec.plan_extents(first, counts)
        # replay the reference loop against an identical cache state
        pages = np.repeat(first, counts) + (
            np.arange(int(counts.sum()))
            - np.repeat(np.cumsum(counts) - counts, counts)
        )
        mask = ref.page_cache.hit_mask(pages)
        nonzero = counts[counts > 0]
        offsets = np.concatenate([[0], np.cumsum(nonzero)[:-1]])
        misses = np.add.reduceat((~mask).astype(np.int64), offsets)
        windows_r = fault_around_windows_scalar(misses, 4)
        assert hits_v == int(mask.sum())
        assert np.array_equal(windows_v, windows_r)


# -- Resource fast path: event-mode pipeline unchanged --------------------


@pytest.mark.parametrize("design,mode", [
    ("smartsage-hwsw", "event"),
    ("ssd-mmap", "event"),
    ("smartsage-sharded", "sharded"),
    ("gids-cached", "gids"),
])
def test_resource_fast_path_pipeline_bit_identical(design, mode):
    """Disabling the synchronous grant path (per-event reference) must
    reproduce every simulated pipeline result bit for bit."""
    from repro.api import RunSpec, Session, SystemSpec

    spec = RunSpec(
        dataset="reddit", edge_budget=1e5, batch_size=16,
        n_workloads=3, n_batches=4, n_workers=2, mode=mode,
        system=SystemSpec(design=design),
    )
    fast = Session(spec).run()
    with event_grants():
        reference = Session(spec).run()
    assert fast == reference


# -- batched analytic sweep vs per-point scalar ----------------------------


def _analytic_session(**overrides):
    from repro.api import RunSpec, Session, SystemSpec

    base = dict(
        dataset="protein-pi", edge_budget=1.5e5, batch_size=16,
        n_workloads=3, n_batches=4, n_workers=2, mode="analytic",
        system=SystemSpec(design="smartsage-sw"),
    )
    base.update(overrides)
    return Session(RunSpec(**base))


@pytest.mark.parametrize("axis,values", [
    ("n_workers", [1, 2, 3, 5, 8, 16]),
    ("host_cache_frac", [0.05, 0.15, 0.3, 0.6]),
    ("batch_size", [8, 16, 32]),
])
def test_sweep_batched_bit_identical_to_scalar(axis, values):
    """The auto fast path (batch=None on an all-analytic grid) must
    produce the exact PipelineResult the per-point scalar run does,
    for axes the model folds (n_workers), axes that split cost groups
    (host_cache_frac), and axes that reshape the workloads
    (batch_size)."""
    batched = _analytic_session().sweep(axis, values)
    scalar = _analytic_session().sweep(axis, values, batch=False)
    for value in values:
        assert batched[value] == scalar[value]


def test_sweep_mixed_modes_falls_back_per_point():
    """A grid with non-analytic points silently takes the per-point
    path under batch=None; batch=True refuses it up front."""
    session = _analytic_session(edge_budget=1e5)
    values = ["analytic", "event"]
    auto = session.sweep("mode", values)
    scalar = session.sweep("mode", values, batch=False)
    for value in values:
        assert auto[value] == scalar[value]
    with pytest.raises(ConfigError, match="analytic"):
        session.sweep("mode", values, batch=True)


def test_sweep_batch_true_matches_forced_scalar():
    batched = _analytic_session().sweep(
        "n_workers", [1, 4, 9], batch=True
    )
    scalar = _analytic_session().sweep(
        "n_workers", [1, 4, 9], batch=False
    )
    assert list(batched) == list(scalar)
    for value in (1, 4, 9):
        assert batched[value] == scalar[value]
