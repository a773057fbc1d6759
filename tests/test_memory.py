"""Tests for the LLC simulator, DRAM and PMEM models."""

import numpy as np
import pytest

from repro.config import DRAMParams, LLCParams, PMEMParams
from repro.errors import ConfigError
from repro.memory import CacheSim, DRAMModel, MemoryHierarchy, PMEMModel

KIB = 1024


def small_cache(capacity=8 * KIB, ways=2, line=64):
    return CacheSim(LLCParams(capacity_bytes=capacity, ways=ways, line_bytes=line))


def test_cache_geometry():
    c = small_cache()
    assert c.num_sets == 8 * KIB // (64 * 2)
    assert c.capacity_lines == 8 * KIB // 64


def test_cache_first_access_misses_then_hits():
    c = small_cache()
    assert not c.access(0)
    assert c.access(0)
    assert c.access(63)        # same line
    assert not c.access(64)    # next line


def test_cache_lru_eviction_within_set():
    c = small_cache(capacity=2 * 64 * 4, ways=2)  # 4 sets, 2 ways
    set_stride = c.num_sets * 64
    a, b, d = 0, set_stride, 2 * set_stride  # all map to set 0
    c.access(a)
    c.access(b)
    c.access(a)       # a is now MRU
    c.access(d)       # evicts b (LRU)
    assert c.access(a)
    assert not c.access(b)


def test_cache_run_trace_matches_scalar():
    c1 = small_cache()
    c2 = small_cache()
    rng = np.random.default_rng(0)
    trace = rng.integers(0, 64 * KIB, size=2000)
    stats = c1.run_trace(trace)
    scalar_hits = sum(c2.access(int(a)) for a in trace)
    assert stats.hits == scalar_hits
    assert stats.accesses == 2000


def test_cache_small_working_set_hits():
    c = small_cache(capacity=64 * KIB, ways=16)
    rng = np.random.default_rng(1)
    trace = rng.integers(0, 4 * KIB, size=5000)  # fits easily
    stats = c.run_trace(trace)
    assert stats.miss_rate < 0.05


def test_cache_huge_working_set_misses():
    c = small_cache(capacity=8 * KIB, ways=2)
    rng = np.random.default_rng(2)
    trace = rng.integers(0, 64 * 1024 * KIB, size=3000)
    stats = c.run_trace(trace)
    assert stats.miss_rate > 0.9


def test_cache_flush():
    c = small_cache()
    c.access(0)
    c.flush()
    assert not c.access(0)


def test_cache_invalid_line_size():
    with pytest.raises(ConfigError):
        CacheSim(LLCParams(line_bytes=48))


# -- DRAM ----------------------------------------------------------------


def test_dram_random_access_mlp_scaling():
    d = DRAMModel(DRAMParams(load_latency_s=100e-9, mlp=4))
    t = d.random_access_time(1000)
    assert t == pytest.approx(1000 * 100e-9 / 4)


def test_dram_hits_cheaper_than_misses():
    d = DRAMModel()
    t_all_miss = d.random_access_time(1000, hit_fraction=0.0,
                                      llc_hit_latency_s=18e-9)
    t_half_hit = d.random_access_time(1000, hit_fraction=0.5,
                                      llc_hit_latency_s=18e-9)
    assert t_half_hit < t_all_miss


def test_dram_stream_utilization_low_when_latency_bound():
    """The Fig 5 observation: ~60% miss rate but ~20% bandwidth use."""
    d = DRAMModel(DRAMParams())
    result = d.stream(
        n_accesses=100_000, miss_rate=0.62, llc_hit_latency_s=18e-9,
        workers=12,
    )
    assert 0.05 < result.utilization < 0.45


def test_dram_stream_caps_at_peak():
    d = DRAMModel(DRAMParams(mlp=4096))  # absurd MLP would exceed peak
    result = d.stream(100_000, miss_rate=1.0, llc_hit_latency_s=0.0,
                      workers=64)
    assert result.utilization == pytest.approx(1.0)


def test_dram_bulk_copy():
    d = DRAMModel(DRAMParams(peak_bandwidth=100e9))
    assert d.bulk_copy_time(100e9) == pytest.approx(1.0)
    with pytest.raises(ConfigError):
        d.bulk_copy_time(-1)


def test_dram_validation():
    with pytest.raises(ConfigError):
        DRAMModel(DRAMParams(mlp=0))
    d = DRAMModel()
    with pytest.raises(ConfigError):
        d.random_access_time(10, hit_fraction=1.5)


# -- PMEM ----------------------------------------------------------------


def test_pmem_slower_than_dram_loads():
    dram = DRAMModel()
    pmem = PMEMModel()
    assert pmem.random_access_time(1000) > dram.random_access_time(1000)


def test_pmem_gather_includes_streaming():
    p = PMEMModel(PMEMParams())
    single = p.gather_time(1, 256)
    assert single > p.random_access_time(1)


def test_pmem_validation():
    with pytest.raises(ConfigError):
        PMEMModel(PMEMParams(mlp=0))
    p = PMEMModel()
    with pytest.raises(ConfigError):
        p.random_access_time(-5)
    with pytest.raises(ConfigError):
        p.bulk_copy_time(-5)


# -- hierarchy -------------------------------------------------------------


def test_hierarchy_characterization_fields():
    h = MemoryHierarchy(
        llc=LLCParams(capacity_bytes=64 * KIB, ways=4),
    )
    rng = np.random.default_rng(3)
    trace = rng.integers(0, 16 * 1024 * KIB, size=5000)
    result = h.characterize(trace, workers=12)
    assert 0.0 <= result.llc_miss_rate <= 1.0
    assert 0.0 <= result.dram_bw_utilization <= 1.0
    assert result.accesses == 5000
    assert result.elapsed_s > 0

