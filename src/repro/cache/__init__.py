"""Tiered feature-cache subsystem shared by the scale-out backends.

SmartSAGE's central tension is where feature bytes live relative to the
compute that needs them.  This package turns cache architecture into a
first-class registered axis instead of a single GPU-HBM LRU welded into
the ``gids`` backend:

* :mod:`repro.cache.policy` -- a ``@register_cache_policy`` registry
  (mirroring the design/backend registries) with three built-in
  replacement policies: exact LRU (the :class:`~repro.memory.lru.ExactLRU`
  the host and storage caches share), static degree-ordered pinning
  (with a vectorized lookup once its resident set is frozen), and a
  CLOCK-style frequency policy.
* :mod:`repro.cache.tiers` -- :class:`FeatureCacheTier` (one priced
  cache level with per-tier hit/byte accounting) and
  :class:`TieredFeatureCache` (miss in tier N falls through to tier
  N+1).  Built-in tiers: GPU HBM, a multi-GPU ``peer`` tier over an
  NVLink-class link, and a pinned-host ``uva`` zero-copy tier priced at
  the PCIe GPU link.
* :mod:`repro.cache.plan` -- deterministic remote-read cache planning
  for the ``sharded`` and ``distributed`` backends (cache decisions
  replay in batch-id order, so both execution faces and any ``--jobs``
  level agree byte-for-byte).

``SystemSpec.cache_tiers`` / ``SystemSpec.cache_policy`` select the
stack declaratively; the default (``None``) is a single HBM LRU tier,
which replays the pre-refactor ``gids`` results bit-identically.
"""

from repro.cache.plan import (
    RemoteCachePlan,
    degree_priority_nodes,
    merge_tier_stats,
    plan_remote_cache,
)
from repro.cache.policy import (
    CachePolicy,
    ClockPolicy,
    LRUPolicy,
    StaticPolicy,
    available_cache_policies,
    build_cache_policy,
    cache_policy_entry,
    register_cache_policy,
    unregister_cache_policy,
)
from repro.cache.tiers import (
    TIER_NAMES,
    CacheLookup,
    FeatureCacheTier,
    TieredFeatureCache,
    build_tiered_cache,
    check_cache_config,
)

__all__ = [
    "CachePolicy",
    "LRUPolicy",
    "StaticPolicy",
    "ClockPolicy",
    "register_cache_policy",
    "unregister_cache_policy",
    "available_cache_policies",
    "cache_policy_entry",
    "build_cache_policy",
    "TIER_NAMES",
    "FeatureCacheTier",
    "TieredFeatureCache",
    "CacheLookup",
    "build_tiered_cache",
    "check_cache_config",
    "RemoteCachePlan",
    "plan_remote_cache",
    "degree_priority_nodes",
    "merge_tier_stats",
]
