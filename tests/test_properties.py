"""Cross-cutting property-based tests (hypothesis) on core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import LRUPolicy
from repro.cache.policy import ClockPolicy
from repro.core.accounting import BatchCost
from repro.graph import CSRGraph, kronecker_expand
from repro.host import OSPageCache, Scratchpad, align_up, expand_extents
from repro.host.mmap_io import MmapReader
from repro.host.syscall import HostSoftware
from repro.sim.stats import PhaseBreakdown, RunningStat, geometric_mean
from repro.storage import PageBuffer, SSDevice
from repro.config import HardwareParams


# -- expand_extents ------------------------------------------------------


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10_000),
            st.integers(min_value=0, max_value=20),
        ),
        max_size=20,
    )
)
@settings(max_examples=60, deadline=None)
def test_expand_extents_total_and_membership(extents):
    first = np.array([e[0] for e in extents], dtype=np.int64)
    counts = np.array([e[1] for e in extents], dtype=np.int64)
    pages = expand_extents(first, counts)
    assert pages.size == counts.sum()
    # every page lies inside its extent
    pos = 0
    for f, c in extents:
        chunk = pages[pos: pos + c]
        pos += c
        if c:
            assert chunk.min() >= f
            assert chunk.max() < f + c


@given(
    st.lists(st.integers(min_value=1, max_value=100_000), min_size=1,
             max_size=30),
    st.sampled_from([512, 4096, 16384]),
)
@settings(max_examples=60, deadline=None)
def test_align_up_properties(sizes, alignment):
    out = align_up(np.array(sizes), alignment)
    assert (out % alignment == 0).all()
    assert (out >= np.array(sizes)).all()
    assert (out - np.array(sizes) < alignment).all()


# -- LRU caches -----------------------------------------------------------


@given(
    st.lists(st.integers(min_value=0, max_value=30), min_size=1,
             max_size=200),
    st.integers(min_value=1, max_value=10),
)
@settings(max_examples=50, deadline=None)
def test_pagecache_never_exceeds_capacity(accesses, capacity):
    pc = OSPageCache(capacity_bytes=capacity * 4096)
    for page in accesses:
        pc.hit_mask([page])
        assert len(pc) <= capacity


def _touch_reference_lru(reference, key, capacity):
    """List-model LRU (least recent first): touch ``key``; True on hit."""
    hit = key in reference
    if hit:
        reference.remove(key)
    reference.append(key)
    if len(reference) > capacity:
        reference.pop(0)
    return hit


@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=30), max_size=60),
        min_size=1, max_size=8,
    ),
    st.integers(min_value=1, max_value=10),
)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_scratchpad_matches_reference_lru(batches, capacity):
    """Every exact-LRU cache must behave exactly like a reference LRU.

    Batches draw from 31 keys against at most 10 slots, so they repeat
    keys and evict mid-batch.  Each cache takes whole batches; one more
    scratchpad takes the same keys one at a time, and one more page
    buffer is touched only through the count-only ``miss_count``.
    """
    caches = [
        Scratchpad(capacity_bytes=capacity, avg_entry_bytes=1),
        OSPageCache(capacity_bytes=capacity * 4096),
        PageBuffer(capacity),
    ]
    policy = LRUPolicy(capacity)
    single = Scratchpad(capacity_bytes=capacity, avg_entry_bytes=1)
    counting = PageBuffer(capacity)
    reference = []
    hits = misses = 0
    for batch in batches:
        expected = [
            _touch_reference_lru(reference, key, capacity) for key in batch
        ]
        hits += sum(expected)
        misses += len(expected) - sum(expected)
        keys = np.array(batch, dtype=np.int64)
        for cache in caches:
            assert cache.hit_mask(keys).tolist() == expected
            assert (cache.hits, cache.misses) == (hits, misses)
            assert cache.residents() == tuple(reference)
        assert policy.access(keys).tolist() == expected
        assert policy.residents() == tuple(reference)
        assert counting.miss_count(keys) == len(expected) - sum(expected)
        assert (counting.hits, counting.misses) == (hits, misses)
        assert counting.residents() == tuple(reference)
        for key, expected_hit in zip(batch, expected):
            assert single.hit_mask([key])[0] == expected_hit
    assert (single.hits, single.misses) == (hits, misses)
    assert single.residents() == tuple(reference)


def _touch_reference_clock(queue, key, capacity):
    """Second-chance FIFO model of CLOCK: ``queue`` holds ``[key,
    referenced]`` from the clock hand on; touch ``key``; True on hit."""
    for entry in queue:
        if entry[0] == key:
            entry[1] = True
            return True
    if len(queue) == capacity:
        while queue[0][1]:
            entry = queue.pop(0)
            entry[1] = False
            queue.append(entry)
        queue.pop(0)
    queue.append([key, True])
    return False


@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=30), max_size=60),
        min_size=1, max_size=8,
    ),
    st.integers(min_value=1, max_value=10),
)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_clock_matches_second_chance_queue(batches, capacity):
    """The ``clock`` policy must behave exactly like a second-chance
    FIFO queue: same hits, same reference bits, and its slots read from
    the hand on are the queue.

    Batches draw from 31 keys against at most 10 slots, so the hand
    sweeps over referenced slots and evicts mid-batch.
    """
    policy = ClockPolicy(capacity)
    queue = []
    for batch in batches:
        expected = [
            _touch_reference_clock(queue, key, capacity) for key in batch
        ]
        keys = np.array(batch, dtype=np.int64)
        assert policy.access(keys).tolist() == expected
        slots = policy.residents()
        assert dict(zip(slots, policy.reference_bits())) == dict(queue)
        order = tuple(key for key, _ in queue)
        assert any(
            slots[i:] + slots[:i] == order for i in range(len(slots))
        ) or slots == order == ()


@given(st.lists(st.integers(min_value=0, max_value=50), min_size=1,
                max_size=150))
@settings(max_examples=40, deadline=None)
def test_pagecache_mask_consistent_with_counts(accesses):
    pc = OSPageCache(capacity_bytes=16 * 4096)
    mask = pc.hit_mask(np.array(accesses))
    assert int(mask.sum()) == pc.hits
    assert int((~mask).sum()) == pc.misses


# -- mmap fault-around ------------------------------------------------------


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5000),
            st.integers(min_value=0, max_value=12),
        ),
        min_size=1, max_size=15,
    ),
    st.integers(min_value=1, max_value=8),
)
@settings(max_examples=40, deadline=None)
def test_mmap_windows_cover_exactly_the_misses(extents, window):
    ssd = SSDevice(HardwareParams())
    pc = OSPageCache(capacity_bytes=1 << 22)
    reader = MmapReader(ssd, pc, HostSoftware(), fault_around_pages=window)
    first = np.array([e[0] * 100 for e in extents], dtype=np.int64)
    counts = np.array([e[1] for e in extents], dtype=np.int64)
    hits, windows = reader.plan_extents(first, counts)
    assert hits + int(windows.sum()) == counts.sum()
    if windows.size:
        assert windows.max() <= window
        assert windows.min() >= 1


# -- accounting -----------------------------------------------------------


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c"]),
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            st.booleans(),
        ),
        max_size=30,
    )
)
@settings(max_examples=50, deadline=None)
def test_batchcost_total_invariant(entries):
    cost = BatchCost()
    expected_total = 0.0
    for name, secs, overlap in entries:
        cost.add(name, secs, overlap=overlap)
        if not overlap:
            expected_total += secs
    assert cost.total_s == pytest.approx(expected_total)
    assert sum(cost.components.values()) == pytest.approx(
        sum(s for _n, s, _o in entries)
    )


def test_batchcost_merge_adds_everything():
    a = BatchCost()
    a.add("x", 1.0)
    a.bytes_from_ssd = 100
    a.requests = 2
    b = BatchCost()
    b.add("x", 2.0)
    b.add("y", 3.0)
    b.bytes_from_ssd = 50
    b.requests = 1
    a.merge(b)
    assert a.total_s == pytest.approx(6.0)
    assert a.components == {"x": 3.0, "y": 3.0}
    assert a.bytes_from_ssd == 150
    assert a.requests == 3


def test_batchcost_rejects_negative():
    with pytest.raises(ValueError):
        BatchCost().add("x", -1.0)


# -- stats -----------------------------------------------------------------


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False), min_size=2, max_size=100))
@settings(max_examples=50, deadline=None)
def test_running_stat_matches_numpy(values):
    stat = RunningStat()
    stat.extend(values)
    assert stat.mean == pytest.approx(np.mean(values), rel=1e-9, abs=1e-6)
    assert stat.std == pytest.approx(
        np.std(values, ddof=1), rel=1e-6, abs=1e-6
    )
    assert stat.min == min(values)
    assert stat.max == max(values)


@given(st.lists(st.floats(min_value=0.1, max_value=100.0,
                          allow_nan=False), min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_geometric_mean_bounds(values):
    gm = geometric_mean(values)
    assert min(values) - 1e-9 <= gm <= max(values) + 1e-9


def test_phase_breakdown_fractions_sum_to_one():
    pb = PhaseBreakdown()
    pb.add("neighbor_sampling", 3.0)
    pb.add("gnn_training", 1.0)
    assert sum(pb.fractions().values()) == pytest.approx(1.0)
    assert pb.as_row()[0] == 3.0


# -- kronecker -----------------------------------------------------------


@given(st.integers(min_value=2, max_value=6),
       st.integers(min_value=2, max_value=6))
@settings(max_examples=30, deadline=None)
def test_kronecker_counts_exact(n_base, n_seed):
    rng = np.random.default_rng(0)
    base = CSRGraph.from_edges(
        rng.integers(0, n_base, size=10),
        rng.integers(0, n_base, size=10),
        num_nodes=n_base,
    )
    seed = CSRGraph.from_edges(
        rng.integers(0, n_seed, size=5),
        rng.integers(0, n_seed, size=5),
        num_nodes=n_seed,
    )
    expanded = kronecker_expand(base, seed)
    assert expanded.num_nodes == n_base * n_seed
    assert expanded.num_edges == base.num_edges * seed.num_edges
