"""Tiered feature-cache subsystem: policies, tiers, backends.

Three load-bearing guarantees pinned here:

* the ``static`` policy's vectorized kernel, the one policy with a
  second path, is bit-identical to its scalar reference, mask by mask
  and state by state, on adversarial key streams (``lru`` and
  ``clock`` are one loop each, checked against list models in
  ``test_properties.py``);
* the tier composite's accounting is conservative -- per-tier hit
  bytes plus final miss bytes always sum to the request bytes, and a
  page hits at most one tier per lookup;
* the default cache configuration (``cache_tiers=None``) replays the
  pre-refactor ``gids`` records byte-for-byte (fixtures captured
  before the refactor landed).
"""

import dataclasses
import pathlib

import numpy as np
import pytest

from repro.api import RunSpec, Session, SystemSpec
from repro.cache import (
    FeatureCacheTier,
    TieredFeatureCache,
    available_cache_policies,
    build_cache_policy,
    build_tiered_cache,
    check_cache_config,
    degree_priority_nodes,
    plan_remote_cache,
    register_cache_policy,
    unregister_cache_policy,
)
from repro.cache.policy import CachePolicy
from repro.config import default_hardware
from repro.errors import ConfigError

CAP = 128


def zipf_stream(rng, n, domain, a=1.2):
    keys = rng.zipf(a, size=n).astype(np.int64)
    return np.minimum(keys, domain) - 1


def streams(seed, n_batches=12, n=400, domain=600):
    rng = np.random.default_rng(seed)
    return [zipf_stream(rng, n, domain) for _ in range(n_batches)]


# -- policy registry ---------------------------------------------------------


def test_builtin_policies_registered():
    assert set(available_cache_policies()) >= {"lru", "static", "clock"}


def test_duplicate_policy_registration_rejected():
    with pytest.raises(ConfigError, match="already registered"):

        @register_cache_policy("lru")
        class Dup(CachePolicy):
            pass


def test_custom_policy_registers_and_unregisters():
    @register_cache_policy("always-miss", description="misses everything")
    class AlwaysMiss(CachePolicy):
        def _batch_access(self, keys):
            return None

        def access_scalar(self, keys):
            return np.zeros(len(keys), dtype=bool)

        def residents(self):
            return np.empty(0, dtype=np.int64)

        def clear(self):
            pass

        def __len__(self):
            return 0

        def __contains__(self, key):
            return False

    try:
        assert "always-miss" in available_cache_policies()
        p = build_cache_policy("always-miss", CAP)
        assert not p.access(np.array([1, 1, 2])).any()
    finally:
        unregister_cache_policy("always-miss")
    assert "always-miss" not in available_cache_policies()


def test_build_cache_policy_validates():
    with pytest.raises(ConfigError, match="unknown cache policy"):
        build_cache_policy("fifo", CAP)
    with pytest.raises(ConfigError, match="capacity"):
        build_cache_policy("lru", 0)


# -- vectorized vs scalar parity (static) ------------------------------------


@pytest.mark.parametrize("policy", ["static"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_policy_vectorized_matches_scalar(policy, seed):
    """Same masks, same resident set, batch by batch."""
    priority = np.arange(5000, dtype=np.int64)[::-1].copy()
    fast = build_cache_policy(policy, CAP, priority_pages=priority)
    slow = build_cache_policy(policy, CAP, priority_pages=priority)
    for batch in streams(seed):
        m_fast = fast.access(batch)
        m_slow = slow.access_scalar(batch)
        np.testing.assert_array_equal(m_fast, m_slow)
        np.testing.assert_array_equal(
            np.sort(fast.residents()), np.sort(slow.residents())
        )
        assert len(fast) == len(slow)


def test_policy_eviction_free_vector_path_exercised():
    """Wide batches that fit (the fill phase's vectorized regime of
    first-touch ``static``) still match the scalar reference."""
    fast = build_cache_policy("static", 4096)
    slow = build_cache_policy("static", 4096)
    batch = np.arange(500, dtype=np.int64)
    np.testing.assert_array_equal(
        fast.access(batch), slow.access_scalar(batch)
    )
    repeat = np.concatenate([batch, batch + 1000])
    np.testing.assert_array_equal(
        fast.access(repeat), slow.access_scalar(repeat)
    )
    assert fast.residents() == slow.residents()


def test_static_policy_frozen_membership():
    """Preloaded static pins exactly the top-priority keys, never
    evicts, and misses everything else without inserting."""
    priority = np.array([10, 20, 30, 40], dtype=np.int64)
    p = build_cache_policy("static", 2, priority_pages=priority)
    assert sorted(p.residents()) == [10, 20]
    mask = p.access(np.array([10, 20, 30, 99], dtype=np.int64))
    assert mask.tolist() == [True, True, False, False]
    assert sorted(p.residents()) == [10, 20]
    p.clear()  # preloaded pins survive clear()
    assert sorted(p.residents()) == [10, 20]


def test_static_policy_first_touch_fill_then_freeze():
    p = build_cache_policy("static", 3)
    p.access(np.array([7, 8, 9, 10], dtype=np.int64))
    assert sorted(p.residents()) == [7, 8, 9]
    mask = p.access(np.array([7, 10, 11], dtype=np.int64))
    assert mask.tolist() == [True, False, False]


# -- tiers and the composite -------------------------------------------------


def tier(name, pages, **kw):
    return FeatureCacheTier(
        name, capacity_bytes=pages * 64, page_bytes=64, **kw
    )


def test_tier_validation():
    with pytest.raises(ConfigError, match="at least one page"):
        tier("hbm", 0)
    with pytest.raises(ConfigError, match="page_bytes"):
        FeatureCacheTier("hbm", capacity_bytes=64, page_bytes=0)
    with pytest.raises(ConfigError, match="at least one tier"):
        TieredFeatureCache([])
    with pytest.raises(ConfigError, match="duplicate tier names"):
        TieredFeatureCache([tier("hbm", 4), tier("hbm", 4)])
    with pytest.raises(ConfigError, match="one page size"):
        TieredFeatureCache([
            tier("hbm", 4),
            FeatureCacheTier("uva", capacity_bytes=256, page_bytes=128),
        ])


def test_tier_hit_cost_pricing():
    flat = tier("hbm", 8, hit_latency_s=2e-6)
    assert flat.hit_cost(3) == 3 * 2e-6
    assert flat.hit_cost(0) == 0.0
    linked = tier("uva", 8, hit_latency_s=1e-6, hit_bandwidth=64e9)
    assert linked.hit_cost(2) == 2 * 1e-6 + (2 * 64) / 64e9


def test_tiered_accounting_sums_to_request_bytes():
    """Conservation: every page of every lookup lands in exactly one
    tier's hit bytes or the stack's final miss bytes."""
    stack = TieredFeatureCache(
        [tier("hbm", 32), tier("peer", 64), tier("uva", 128)]
    )
    rng = np.random.default_rng(7)
    total_requested = 0
    for _ in range(10):
        batch = zipf_stream(rng, 300, 500)
        look = stack.lookup(batch)
        total_requested += batch.size * stack.page_bytes
        assert look.hits + look.misses == batch.size
        assert sum(look.tier_hits) == look.hits
    # every page either hit exactly one tier or missed the whole stack
    tier_hit_bytes = sum(t.hit_bytes for t in stack.tiers)
    assert tier_hit_bytes + stack.tiers[-1].miss_bytes == total_requested
    assert (
        stack.page_bytes * (stack.hits + stack.misses) == total_requested
    )


def test_tiered_fallthrough_promotes_and_ladders():
    """Pages evicted from a tiny near tier are caught by the far tier;
    a hit never registers in more than one tier per lookup."""
    stack = TieredFeatureCache([tier("hbm", 4), tier("uva", 512)])
    a = np.arange(64, dtype=np.int64)
    first = stack.lookup(a)
    assert first.hits == 0 and first.misses == 64
    second = stack.lookup(a)
    # the 4-page LRU thrashes on a cyclic re-scan; the big tier holds
    # all 64
    assert second.tier_hits[0] == 0
    assert second.tier_hits[1] == 64
    assert second.misses == 0


def test_tiered_scalar_lookup_parity():
    fast = TieredFeatureCache([tier("hbm", 32), tier("uva", 256)])
    slow = TieredFeatureCache([tier("hbm", 32), tier("uva", 256)])
    rng = np.random.default_rng(3)
    for _ in range(6):
        batch = zipf_stream(rng, 250, 400)
        lf = fast.lookup(batch)
        ls = slow.lookup_scalar(batch)
        assert lf.tier_hits == ls.tier_hits
        assert lf.misses == ls.misses


def test_tiered_clear_resets_state_and_stats():
    stack = TieredFeatureCache([tier("hbm", 32)])
    stack.lookup(np.arange(10, dtype=np.int64))
    assert len(stack) == 10 and stack.misses == 10
    stack.clear()
    assert len(stack) == 0
    assert stack.hits == 0 and stack.misses == 0
    assert stack.tiers[0].hit_bytes == 0


def test_build_tiered_cache_defaults_and_pricing():
    hw = default_hardware()
    stack = build_tiered_cache(hw, 4096)
    assert [t.name for t in stack.tiers] == ["hbm"]
    assert stack.tiers[0].component == "gpu_cache"
    assert stack.tiers[0].hit_latency_s == hw.gids.cache_hit_s
    assert stack.tiers[0].hit_bandwidth is None
    full = build_tiered_cache(hw, 4096, tiers=("hbm", "peer", "uva"))
    assert full.tiers[1].hit_bandwidth == hw.cache.nvlink_bandwidth
    assert full.tiers[2].hit_latency_s == hw.pcie.gpu_link_latency_s
    with pytest.raises(ConfigError, match="unknown cache tier"):
        build_tiered_cache(hw, 4096, tiers=("hbm", "l2"))


def test_build_tiered_cache_static_chunks_priority():
    """Successive static tiers pin successive priority chunks."""
    hw = default_hardware()
    page = 1 << 20  # 1 MiB pages so tier capacities are a few pages
    priority = np.arange(1000, dtype=np.int64)
    stack = build_tiered_cache(
        hw, page, tiers=("hbm", "peer"), policy="static",
        gpu_cache_mb=4.0, priority_pages=priority,
    )
    near, far = stack.tiers
    assert sorted(near.policy.residents()) == list(
        range(near.capacity_pages)
    )
    far_res = sorted(far.policy.residents())
    assert far_res[0] == near.capacity_pages
    assert len(far_res) == far.capacity_pages


# -- spec plumbing -----------------------------------------------------------


def test_check_cache_config_rejects_bad_stacks():
    with pytest.raises(ConfigError, match="unknown cache tier"):
        check_cache_config(("hbm", "l2"), None)
    with pytest.raises(ConfigError, match="duplicate"):
        check_cache_config(("hbm", "hbm"), None)
    with pytest.raises(ConfigError, match="at least one"):
        check_cache_config((), None)
    with pytest.raises(ConfigError, match="unknown cache policy"):
        check_cache_config(("hbm",), "fifo")
    assert check_cache_config(None, None) == (None, None)
    assert check_cache_config(["hbm"], "lru") == (("hbm",), "lru")


def test_system_spec_validates_cache_knobs():
    with pytest.raises(ConfigError, match="unknown cache tier"):
        SystemSpec(cache_tiers=("l2",)).validate()
    with pytest.raises(ConfigError, match="unknown cache policy"):
        SystemSpec(cache_tiers=("hbm",), cache_policy="arc").validate()
    ok = SystemSpec(cache_tiers=["hbm", "uva"], cache_policy="clock")
    ok.validate()
    assert ok.cache_tiers == ("hbm", "uva")


def test_system_spec_to_dict_omits_default_cache_fields():
    """Pre-cache specs keep their serialized form (and run keys)."""
    out = SystemSpec().to_dict()
    assert "cache_tiers" not in out and "cache_policy" not in out
    withc = SystemSpec(
        cache_tiers=("hbm", "uva"), cache_policy="static"
    ).to_dict()
    assert withc["cache_tiers"] == ["hbm", "uva"]
    assert withc["cache_policy"] == "static"
    again = SystemSpec.from_dict(withc)
    assert again == SystemSpec(
        cache_tiers=("hbm", "uva"), cache_policy="static"
    )


# -- determinism lock: default config replays pre-refactor records -----------


def _gids_spec(design):
    return RunSpec(
        dataset="reddit", edge_budget=3e5, batch_size=24,
        n_workloads=5, n_batches=8, n_workers=2, mode="gids",
        system=SystemSpec(design=design),
    )


@pytest.mark.parametrize("design", ["gids-cached", "gids-baseline"])
def test_default_gids_config_matches_pre_refactor_records(design):
    """The single-HBM-LRU default must replay the records captured
    before the tiered-cache refactor, byte for byte (on the graphs of
    that time: the "f64" RMAT draws)."""
    from repro.service.store import record_bytes, result_to_dict

    result = Session(_gids_spec(design).replace(rmat_draw="f64")).run()
    blob = record_bytes(result_to_dict(result))
    fixture = (
        pathlib.Path(__file__).parent
        / "data"
        / f"pre_refactor_{design}.json"
    )
    assert blob == fixture.read_bytes()


def test_default_gids_stats_keep_legacy_keys_only():
    r = Session(_gids_spec("gids-cached")).run()
    assert set(r.backend_stats) == {
        "qp_depth", "bar_bytes", "bounce_bytes_avoided", "doorbells",
        "gpu_cache_hit_rate",
    }


def test_gids_tiered_stack_reports_per_tier_stats():
    spec = _gids_spec("gids-cached")
    spec = spec.replace(
        system=dataclasses.replace(
            spec.system,
            cache_tiers=("hbm", "peer", "uva"),
            cache_policy="clock",
        )
    )
    r = Session(spec).run()
    for name in ("hbm", "peer", "uva"):
        assert f"cache_{name}_hits" in r.backend_stats
        assert f"cache_{name}_hit_bytes" in r.backend_stats
    assert "cache_misses" in r.backend_stats
    hits = sum(
        r.backend_stats[f"cache_{n}_hits"]
        for n in ("hbm", "peer", "uva")
    )
    total = hits + r.backend_stats["cache_misses"]
    assert r.backend_stats["gpu_cache_hit_rate"] == hits / total


def test_gids_tiered_run_is_deterministic():
    spec = _gids_spec("gids-cached")
    spec = spec.replace(
        system=dataclasses.replace(
            spec.system, cache_tiers=("hbm", "uva"), cache_policy="lru"
        )
    )
    a, b = Session(spec).run(), Session(spec).run()
    assert a.elapsed_s == b.elapsed_s
    assert a.backend_stats == b.backend_stats


# -- scale-out backends ------------------------------------------------------


def _sharded_spec(**system_kw):
    return RunSpec(
        dataset="reddit", edge_budget=3e5, batch_size=24,
        n_workloads=5, n_batches=8, n_workers=2, mode="sharded",
        system=SystemSpec(design="ssd-mmap", n_shards=2, **system_kw),
    )


def test_sharded_front_cache_cuts_remote_bytes():
    base = Session(_sharded_spec()).run()
    cached = Session(
        _sharded_spec(cache_tiers=("uva",), cache_policy="lru")
    ).run()
    assert "cache_uva_hits" in cached.backend_stats
    assert cached.backend_stats["remote_bytes_saved"] > 0
    assert (
        cached.backend_stats["remote_bytes"]
        + cached.backend_stats["remote_bytes_saved"]
        == base.backend_stats["remote_bytes"]
    )
    # cache stats never appear without the spec opting in
    assert not any(k.startswith("cache_") for k in base.backend_stats)


def test_sharded_front_cache_static_policy():
    r = Session(
        _sharded_spec(cache_tiers=("uva",), cache_policy="static")
    ).run()
    assert r.backend_stats["cache_uva_hits"] > 0


def test_distributed_faces_agree_with_front_cache():
    """Event and analytic distributed faces net identical bytes and
    per-tier counters out of the same cache plan."""
    kw = dict(
        n_hosts=2, cache_tiers=("uva",), cache_policy="lru",
    )
    spec_ev = RunSpec(
        dataset="reddit", edge_budget=3e5, batch_size=24,
        n_workloads=5, n_batches=8, n_workers=2, mode="distributed",
        system=SystemSpec(design="ssd-mmap", n_shards=2, **kw),
    )
    spec_an = spec_ev.replace(mode="distributed-analytic")
    ev = Session(spec_ev).run()
    an = Session(spec_an).run()
    for key in ("remote_bytes", "remote_bytes_saved", "cache_uva_hits",
                "cache_uva_hit_bytes", "cache_misses"):
        assert ev.backend_stats[key] == an.backend_stats[key], key


def test_distributed_default_unchanged_by_cache_code():
    """No cache_tiers -> no cache stats, same schedule as before."""
    spec = RunSpec(
        dataset="reddit", edge_budget=3e5, batch_size=24,
        n_workloads=5, n_batches=8, n_workers=2, mode="distributed",
        system=SystemSpec(design="ssd-mmap", n_shards=2, n_hosts=2),
    )
    r = Session(spec).run()
    assert not any(k.startswith("cache_") for k in r.backend_stats)
    assert "remote_bytes_saved" not in r.backend_stats


# -- remote cache planning ---------------------------------------------------


def test_plan_remote_cache_is_batch_id_ordered():
    hw = default_hardware()
    rng = np.random.default_rng(5)
    nodes = [zipf_stream(rng, 80, 200) for _ in range(4)]
    batch_ids = [1, 3, 5, 7]
    a = plan_remote_cache(hw, batch_ids, nodes, 256, tiers=("uva",))
    b = plan_remote_cache(hw, batch_ids, nodes, 256, tiers=("uva",))
    assert a.hit_bytes == b.hit_bytes
    assert a.hit_cost_s == b.hit_cost_s
    assert set(a.hit_bytes) == set(batch_ids)
    assert a.bytes_saved == sum(a.hit_bytes.values())


def test_degree_priority_nodes_stable_order():
    class G:
        def degrees(self):
            return np.array([3, 9, 3, 1], dtype=np.int64)

    order = degree_priority_nodes(G())
    assert order.tolist() == [1, 0, 2, 3]
