"""Feature-cache tiers and the miss-fallthrough composite.

A :class:`FeatureCacheTier` is one priced level of the feature-byte
hierarchy: a replacement policy (any name in
:func:`repro.cache.policy.available_cache_policies`) over page-granular
keys, a hit service price (latency and, for link-priced tiers, a
bandwidth term), and per-tier hit/miss/byte accounting.  The
:class:`TieredFeatureCache` composite chains tiers: pages missing tier
``N`` fall through to tier ``N+1``, and only pages missing *every*
tier reach storage.

Built-in tier names (:data:`TIER_NAMES`):

``hbm``
    the GPU's own HBM software cache (GIDS's GPU page cache), priced
    per hit at ``GIDSParams.cache_hit_s`` and sized by
    ``gpu_cache_mb``;
``peer``
    a multi-GPU peer tier -- a replica GPU serves its neighbor's hot
    pages over an NVLink-class link
    (:class:`repro.config.CacheParams`);
``uva``
    a pinned-host UVA zero-copy window: the GPU reads host memory
    directly over the PCIe GPU link (DGL's ``unified_tensor`` /
    ``pin_memory`` shape) -- no page fault, no bounce copy, PCIe
    pricing.

Each tier answers through its policy's one ``access``; there is no
scalar twin of :meth:`TieredFeatureCache.lookup`.  A lookup hands each
tier only the pages the nearer tiers missed, and takes the last tier's
misses as a count.

A single-``hbm``-LRU stack (the default) reproduces the pre-refactor
GPU cache arithmetic bit-identically: same membership kernel, same
``n_hits * cache_hit_s`` service cost, same one-event schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cache.policy import (
    available_cache_policies,
    build_cache_policy,
)
from repro.config import MIB, HardwareParams
from repro.errors import ConfigError

__all__ = [
    "TIER_NAMES",
    "FeatureCacheTier",
    "CacheLookup",
    "TieredFeatureCache",
    "build_tiered_cache",
    "check_cache_config",
]

#: the built-in tier names, in their canonical near-to-far order
TIER_NAMES = ("hbm", "peer", "uva")


class FeatureCacheTier:
    """One priced cache level over page-granular feature keys.

    ``hit_latency_s`` is the per-hit service latency;
    ``hit_bandwidth`` (optional) adds a per-byte link term for tiers
    whose hits move pages over a link (peer NVLink, UVA PCIe).  All
    stat counters are integers except the derived rate, so accounting
    is exact across processes.
    """

    def __init__(
        self,
        name: str,
        capacity_bytes: int,
        page_bytes: int,
        policy: str = "lru",
        hit_latency_s: float = 0.0,
        hit_bandwidth: Optional[float] = None,
        priority_pages: Optional[np.ndarray] = None,
        component: Optional[str] = None,
    ):
        if page_bytes <= 0:
            raise ConfigError("page_bytes must be positive")
        if capacity_bytes < page_bytes:
            raise ConfigError(
                f"tier {name!r} needs capacity for at least one page "
                f"(capacity_bytes={capacity_bytes}, "
                f"page_bytes={page_bytes})"
            )
        self.name = name
        self.capacity_pages = capacity_bytes // page_bytes
        self.page_bytes = page_bytes
        self.policy_name = policy
        self.policy = build_cache_policy(
            policy, self.capacity_pages, priority_pages=priority_pages
        )
        self.hit_latency_s = hit_latency_s
        self.hit_bandwidth = hit_bandwidth
        #: BatchCost component name hits of this tier are charged to
        #: ("gpu_cache" for hbm keeps pre-refactor records byte-stable)
        self.component = component or (
            "gpu_cache" if name == "hbm" else f"{name}_cache"
        )
        self.hits = 0
        self.misses = 0
        self.hit_bytes = 0
        self.miss_bytes = 0

    def access(self, pages: np.ndarray) -> np.ndarray:
        """Per-page hit/miss mask for a batch (updates policy state)."""
        mask = self.policy.access(pages)
        hits = int(mask.sum())
        misses = int(mask.size) - hits
        self.hits += hits
        self.misses += misses
        self.hit_bytes += hits * self.page_bytes
        self.miss_bytes += misses * self.page_bytes
        return mask

    def hit_cost(self, n_hits: int) -> float:
        """Service time for ``n_hits`` hits in this tier."""
        if n_hits <= 0:
            return 0.0
        cost = n_hits * self.hit_latency_s
        if self.hit_bandwidth:
            cost += (n_hits * self.page_bytes) / self.hit_bandwidth
        return cost

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self.policy)

    def __contains__(self, page: int) -> bool:
        return page in self.policy

    def clear(self) -> None:
        """Drop cached pages *and* reset the stat counters."""
        self.policy.clear()
        self.hits = 0
        self.misses = 0
        self.hit_bytes = 0
        self.miss_bytes = 0


@dataclass(frozen=True)
class CacheLookup:
    """Outcome of one batched lookup through a tier stack."""

    tiers: Tuple[FeatureCacheTier, ...]
    tier_hits: Tuple[int, ...]
    misses: int

    @property
    def hits(self) -> int:
        return sum(self.tier_hits)

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def hit_costs(self) -> Tuple[Tuple[str, int, float], ...]:
        """(component, n_hits, cost_s) per tier that served hits."""
        return tuple(
            (tier.component, n, tier.hit_cost(n))
            for tier, n in zip(self.tiers, self.tier_hits)
            if n > 0
        )

    @property
    def hit_cost_s(self) -> float:
        return sum(cost for _, _, cost in self.hit_costs())


class TieredFeatureCache:
    """Miss-fallthrough composite over an ordered tier stack.

    Every page of a lookup either hits exactly one tier (the nearest
    one holding it) or misses all of them, so per-tier hit bytes plus
    final miss bytes always sum to the request bytes -- the accounting
    invariant the tests pin down.  Each tier inserts on miss, so a page
    served by a far tier is promoted into every nearer tier on its way
    up, which is what builds the hit-rate ladder.
    """

    def __init__(self, tiers: Sequence[FeatureCacheTier]):
        tiers = list(tiers)
        if not tiers:
            raise ConfigError("TieredFeatureCache needs at least one tier")
        page_bytes = {t.page_bytes for t in tiers}
        if len(page_bytes) != 1:
            raise ConfigError(
                f"all tiers must share one page size, got {page_bytes}"
            )
        names = [t.name for t in tiers]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate tier names: {names}")
        self.tiers: Tuple[FeatureCacheTier, ...] = tuple(tiers)
        self.page_bytes = self.tiers[0].page_bytes

    def lookup(self, pages: np.ndarray) -> CacheLookup:
        """Route a page batch through the stack, nearest tier first."""
        remaining = np.asarray(pages, dtype=np.int64)
        misses = int(remaining.size)
        tier_hits: List[int] = []
        for i, tier in enumerate(self.tiers, start=1):
            if misses == 0:
                tier_hits.append(0)
                continue
            mask = tier.access(remaining)
            hits = int(mask.sum())
            tier_hits.append(hits)
            misses -= hits
            if i < len(self.tiers):  # the last tier's leftovers go unread
                remaining = remaining[~mask]
        return CacheLookup(
            tiers=self.tiers, tier_hits=tuple(tier_hits), misses=misses
        )

    # -- composite counters (the surface the gids backend reads) -----------

    @property
    def hits(self) -> int:
        """Pages served by *any* tier (lifetime)."""
        return sum(t.hits for t in self.tiers)

    @property
    def misses(self) -> int:
        """Pages that fell through every tier to storage (lifetime)."""
        return self.tiers[-1].misses

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def capacity_pages(self) -> int:
        """Total pages the stack can hold (all tiers combined)."""
        return sum(t.capacity_pages for t in self.tiers)

    def clear(self) -> None:
        for tier in self.tiers:
            tier.clear()

    def __len__(self) -> int:
        return sum(len(t) for t in self.tiers)


def check_cache_config(
    tiers: Optional[Sequence[str]],
    policy: Optional[str],
) -> Tuple[Optional[Tuple[str, ...]], Optional[str]]:
    """Validate the ``(cache_tiers, cache_policy)`` spec pair.

    The one copy of this check, shared by ``SystemSpec.validate`` (which
    ``build_system`` runs) and ``ExecutionRequest.validate``, so a bad
    stack fails at spec time, before any graph is built.  Returns the
    normalized pair (``tiers`` as a tuple).
    """
    if tiers is not None:
        tiers = tuple(tiers)
        if not tiers:
            raise ConfigError("cache_tiers must name at least one tier")
        for name in tiers:
            if name not in TIER_NAMES:
                raise ConfigError(
                    f"unknown cache tier {name!r}; one of {TIER_NAMES}"
                )
        if len(set(tiers)) != len(tiers):
            raise ConfigError(
                f"duplicate cache tiers: {list(tiers)}"
            )
    if policy is not None:
        known = available_cache_policies()
        if policy not in known:
            raise ConfigError(
                f"unknown cache policy {policy!r}; one of {known}"
            )
    return tiers, policy


def build_tiered_cache(
    hw: HardwareParams,
    page_bytes: int,
    tiers: Optional[Sequence[str]] = None,
    policy: Optional[str] = None,
    gpu_cache_mb: Optional[float] = None,
    priority_pages: Optional[np.ndarray] = None,
) -> TieredFeatureCache:
    """Assemble a :class:`TieredFeatureCache` from tier names.

    ``tiers`` defaults to ``("hbm",)`` and ``policy`` to ``"lru"`` --
    the exact pre-refactor GPU cache.  ``gpu_cache_mb`` sizes the hbm
    tier (``CacheParams.hbm_capacity_mb`` when ``None``); peer/uva
    capacities and the NVLink pricing come from ``hw.cache``, the UVA
    pricing from ``hw.pcie``'s GPU link.  ``priority_pages`` (descending
    priority) feeds the static pinning policy, which requires it;
    successive static tiers pin successive chunks of it, so the
    hierarchy holds the hottest pages nearest the GPU.
    """
    names = tuple(tiers) if tiers else ("hbm",)
    policy = policy or "lru"
    cache_hw = hw.cache
    built: List[FeatureCacheTier] = []
    offset = 0
    for name in names:
        if name == "hbm":
            capacity_mb = (
                gpu_cache_mb
                if gpu_cache_mb is not None
                else cache_hw.hbm_capacity_mb
            )
            hit_s = hw.gids.cache_hit_s
            bandwidth = None
        elif name == "peer":
            capacity_mb = cache_hw.peer_capacity_mb
            hit_s = cache_hw.nvlink_latency_s
            bandwidth = cache_hw.nvlink_bandwidth
        elif name == "uva":
            capacity_mb = cache_hw.uva_capacity_mb
            hit_s = hw.pcie.gpu_link_latency_s
            bandwidth = hw.pcie.gpu_link_bandwidth
        else:
            raise ConfigError(
                f"unknown cache tier {name!r}; one of {TIER_NAMES}"
            )
        tier_priority = None
        if priority_pages is not None:
            tier_priority = np.asarray(priority_pages, dtype=np.int64)[
                offset:
            ]
        tier = FeatureCacheTier(
            name,
            capacity_bytes=max(page_bytes, int(capacity_mb * MIB)),
            page_bytes=page_bytes,
            policy=policy,
            hit_latency_s=hit_s,
            hit_bandwidth=bandwidth,
            priority_pages=tier_priority,
        )
        if policy == "static":
            offset += tier.capacity_pages
        built.append(tier)
    return TieredFeatureCache(built)
