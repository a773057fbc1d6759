"""Tests for the host I/O stack: page cache, mmap, direct I/O, driver."""

import numpy as np
import pytest

from repro.config import HardwareParams
from repro.errors import ConfigError
from repro.host import (
    DirectIOReader,
    HostSoftware,
    MmapReader,
    OSPageCache,
    Scratchpad,
    SmartSAGEDriver,
    align_up,
    expand_extents,
)
from repro.storage import SSDevice

MIB = 1 << 20


@pytest.fixture
def ssd():
    return SSDevice(HardwareParams())


# -- page cache ---------------------------------------------------------


def test_pagecache_lru_semantics():
    pc = OSPageCache(capacity_bytes=2 * 4096)
    assert not pc.hit_mask([1])[0]
    assert not pc.hit_mask([2])[0]
    assert pc.hit_mask([1])[0]
    assert not pc.hit_mask([3])[0]  # evicts 2
    assert not pc.hit_mask([2])[0]


def test_pagecache_batch_hit_count():
    pc = OSPageCache(capacity_bytes=10 * 4096)
    hits = pc.hit_mask(np.array([1, 2, 1, 2, 3])).sum()
    assert hits == 2
    assert pc.hit_rate == pytest.approx(2 / 5)


def test_pagecache_drop():
    pc = OSPageCache(capacity_bytes=10 * 4096)
    pc.hit_mask([7])
    pc.clear()
    assert 7 not in pc


def test_pagecache_validation():
    with pytest.raises(ConfigError):
        OSPageCache(capacity_bytes=4096, page_bytes=0)


# -- extent expansion ------------------------------------------------------


def test_expand_extents():
    pages = expand_extents(np.array([10, 100]), np.array([3, 2]))
    assert pages.tolist() == [10, 11, 12, 100, 101]


def test_expand_extents_with_zero_counts():
    pages = expand_extents(np.array([5, 9, 20]), np.array([2, 0, 1]))
    assert pages.tolist() == [5, 6, 20]


def test_expand_extents_empty():
    assert expand_extents(np.array([]), np.array([])).size == 0


# -- mmap ----------------------------------------------------------------


def test_mmap_cold_read_faults_with_fault_around(ssd):
    pc = OSPageCache(capacity_bytes=64 * MIB)
    reader = MmapReader(ssd, pc, HostSoftware(), fault_around_pages=4)
    out = reader.read_extents(np.array([0, 10]), np.array([2, 1]))
    # 2-page extent -> one fault-around window; 1-page extent -> one
    assert out.major_faults == 2
    assert out.pages_missed == 3
    assert out.cache_hits == 0
    assert out.bytes_from_ssd == 3 * 4096


def test_mmap_fault_around_windows(ssd):
    pc = OSPageCache(capacity_bytes=64 * MIB)
    reader = MmapReader(ssd, pc, HostSoftware(), fault_around_pages=4)
    out = reader.read_extents(np.array([0]), np.array([10]))
    # 10 missing pages -> windows of 4 + 4 + 2
    assert out.major_faults == 3
    assert out.pages_missed == 10


def test_mmap_rereads_hit_cache(ssd):
    pc = OSPageCache(capacity_bytes=64 * MIB)
    reader = MmapReader(ssd, pc, HostSoftware())
    reader.read_extents(np.array([0]), np.array([4]))
    out = reader.read_extents(np.array([0]), np.array([4]))
    assert out.major_faults == 0
    assert out.cache_hits == 4
    assert out.elapsed_s < 50e-6  # minor lookups only


def test_mmap_fault_cost_components(ssd):
    """A single-page fault costs fault + lock + one 4 KiB device read."""
    pc = OSPageCache(capacity_bytes=64 * MIB)
    sw = HostSoftware()
    reader = MmapReader(ssd, pc, sw)
    out = reader.read_extents(np.array([0]), np.array([1]))
    device = SSDevice(HardwareParams()).host_read_latency(4096)
    expected = sw.params.mmap_fault_s + sw.params.pagecache_lock_s + device
    assert out.elapsed_s == pytest.approx(expected, rel=0.05)


def test_mmap_empty_extents(ssd):
    pc = OSPageCache(capacity_bytes=MIB)
    reader = MmapReader(ssd, pc, HostSoftware())
    out = reader.read_extents(np.array([]), np.array([]))
    assert out.elapsed_s == 0.0
    assert out.pages_touched == 0


# -- scratchpad -------------------------------------------------------------


def test_scratchpad_hit_mask_and_rate():
    sp = Scratchpad(capacity_bytes=10 * 1024, avg_entry_bytes=1024)
    mask = sp.hit_mask(np.array([1, 2, 1, 3, 1]))
    assert mask.tolist() == [False, False, True, False, True]
    assert sp.hit_rate == pytest.approx(2 / 5)


def test_scratchpad_eviction():
    sp = Scratchpad(capacity_bytes=2048, avg_entry_bytes=1024)  # 2 entries
    sp.hit_mask([1])
    sp.hit_mask([2])
    sp.hit_mask([3])  # evicts 1
    assert 1 not in sp
    assert 2 in sp


def test_scratchpad_validation():
    with pytest.raises(ConfigError):
        Scratchpad(capacity_bytes=1024, avg_entry_bytes=0)


# -- direct I/O ------------------------------------------------------------


def test_align_up():
    assert align_up(np.array([1, 4096, 4097]), 4096).tolist() == [
        4096, 4096, 8192
    ]


def test_direct_io_one_request_per_extent(ssd):
    reader = DirectIOReader(ssd, HostSoftware())
    out = reader.read_node_extents(
        np.array([1, 2, 3]), np.array([100, 5000, 9000])
    )
    assert out.requests == 3
    assert out.bytes_from_ssd == 4096 + 8192 + 12288


def test_direct_io_skips_empty_extents(ssd):
    reader = DirectIOReader(ssd, HostSoftware())
    out = reader.read_node_extents(np.array([1, 2]), np.array([0, 4096]))
    assert out.requests == 1


def test_direct_io_scratchpad_hits_are_cheap(ssd):
    sp = Scratchpad(capacity_bytes=MIB, avg_entry_bytes=4096)
    reader = DirectIOReader(ssd, HostSoftware(), scratchpad=sp)
    keys = np.array([7, 7, 7, 7])
    sizes = np.full(4, 4096)
    out = reader.read_node_extents(keys, sizes)
    assert out.scratchpad_hits == 3
    assert out.requests == 1


def test_direct_io_beats_mmap_on_cold_extents(ssd):
    """The Fig 14 software-only speedup, at the path level: one O_DIRECT
    request per node beats the mmap fault path, whose page-cache
    maintenance cost buys nothing on a cold, low-locality stream."""
    hw = HardwareParams()
    pc = OSPageCache(capacity_bytes=64 * MIB)
    mmap_reader = MmapReader(SSDevice(hw), pc, HostSoftware())
    direct_reader = DirectIOReader(SSDevice(hw), HostSoftware())
    # 50 nodes, each with a 2-block (8 KiB) edge list
    first = np.arange(0, 500, 10)
    counts = np.full(50, 2)
    t_mmap = mmap_reader.read_extents(first, counts).elapsed_s
    t_direct = direct_reader.read_node_extents(
        np.arange(50), np.full(50, 8192)
    ).elapsed_s
    assert t_mmap / t_direct > 1.2


def test_direct_io_shape_mismatch(ssd):
    reader = DirectIOReader(ssd, HostSoftware())
    with pytest.raises(ValueError):
        reader.read_node_extents(np.array([1]), np.array([1, 2]))


# -- SmartSAGE driver -------------------------------------------------------


def test_driver_full_coalescing_single_command(ssd):
    driver = SmartSAGEDriver(HostSoftware(), ssd.nvme)
    plan = driver.plan_sampling(n_targets=1024, granularity=1024)
    assert plan.n_commands == 1
    assert plan.nsconfig_bytes == 64 + 1024 * 16


def test_driver_fine_granularity_explodes_commands(ssd):
    driver = SmartSAGEDriver(HostSoftware(), ssd.nvme)
    coarse = driver.plan_sampling(1024, granularity=1024)
    fine = driver.plan_sampling(1024, granularity=1)
    assert fine.n_commands == 1024
    assert fine.host_time_s > 100 * coarse.host_time_s


def test_driver_granularity_sweep_monotone(ssd):
    """Fig 15's mechanism: host command cost grows as granularity
    shrinks."""
    driver = SmartSAGEDriver(HostSoftware(), ssd.nvme)
    times = [
        driver.plan_sampling(1024, g).host_time_s
        for g in (1024, 512, 256, 64, 16, 1)
    ]
    assert all(t2 >= t1 for t1, t2 in zip(times, times[1:]))


def test_driver_validation(ssd):
    driver = SmartSAGEDriver(HostSoftware(), ssd.nvme)
    with pytest.raises(ConfigError):
        driver.plan_sampling(0, 16)
    with pytest.raises(ConfigError):
        driver.plan_sampling(16, 0)
