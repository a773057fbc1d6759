"""Registered cache replacement policies.

A cache policy owns the *membership* question of one cache tier: given
a batch of page keys, which are resident (hit) and which must be
fetched (miss, insert-on-miss)?  Policies register through
``@register_cache_policy``, so third-party policies plug in without
touching this module::

    @register_cache_policy("my-policy", description="...")
    class MyPolicy(CachePolicy):
        ...

Names, clashes, removal and lookup follow
:class:`repro.registry.Registry`; names list sorted.

Each policy answers a batch through its one ``access``: ``lru`` is the
shared :class:`~repro.memory.lru.ExactLRU`'s ``hit_mask``, ``clock``
its own per-key loop, and ``static`` one sorted lookup against the
pinned set it preloads from ``priority_pages``.  Tests check ``lru``
and ``clock`` against list models (``tests/test_properties.py``) and
``static`` against ``np.isin``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.memory.lru import ExactLRU
from repro.registry import Registry

__all__ = [
    "CachePolicy",
    "CachePolicyEntry",
    "register_cache_policy",
    "unregister_cache_policy",
    "available_cache_policies",
    "cache_policy_entry",
    "build_cache_policy",
    "LRUPolicy",
    "StaticPolicy",
    "ClockPolicy",
]

@dataclass(frozen=True)
class CachePolicyEntry:
    """One registered cache replacement policy."""

    name: str
    factory: Callable
    description: str = ""


_POLICIES = Registry("cache policy", CachePolicyEntry, sort=True)


def register_cache_policy(
    name: str,
    *,
    description: str = "",
    replace: bool = False,
) -> Callable:
    """Decorator registering a policy factory under ``name``.

    The factory is called as ``factory(capacity, priority_pages=...)``
    and must return a :class:`CachePolicy`.
    """
    return _POLICIES.register(name, description=description, replace=replace)


unregister_cache_policy = _POLICIES.unregister
available_cache_policies = _POLICIES.names
cache_policy_entry = _POLICIES.entry


def build_cache_policy(
    name: str,
    capacity: int,
    priority_pages: Optional[np.ndarray] = None,
) -> "CachePolicy":
    """Instantiate the policy registered as ``name``."""
    if capacity < 1:
        raise ConfigError(
            f"cache policy capacity must be >= 1, got {capacity}"
        )
    policy = cache_policy_entry(name).factory(
        capacity, priority_pages=priority_pages
    )
    return policy


class CachePolicy:
    """Protocol base: batched membership with insert-on-miss.

    Subclasses implement ``access``.  ``priority_pages`` is an optional
    page-ID array in descending priority order; replacement policies
    ignore it, the static pinning policy reads its pinned set from it.
    """

    name = "base"

    def __init__(self, capacity: int, priority_pages=None):
        self.capacity = int(capacity)

    def access(self, keys: np.ndarray) -> np.ndarray:
        """Per-key hit mask for one batch (updates policy state)."""
        raise NotImplementedError

    def residents(self) -> Tuple[int, ...]:
        """Resident keys in the policy's canonical order (parity tests)."""
        raise NotImplementedError

    def clear(self) -> None:
        raise NotImplementedError

    def __len__(self) -> int:
        return len(self.residents())

    def __contains__(self, key: int) -> bool:
        raise NotImplementedError


@register_cache_policy(
    "lru", description="exact LRU (the shared ExactLRU)"
)
class LRUPolicy(CachePolicy):
    """Exact LRU, the default policy of every cache tier.

    Holds the same :class:`~repro.memory.lru.ExactLRU` as the host page
    cache, the scratchpads and the SSD page buffer.
    """

    name = "lru"

    def __init__(self, capacity: int, priority_pages=None):
        super().__init__(capacity)
        self._lru = ExactLRU(self.capacity)

    def access(self, keys: np.ndarray) -> np.ndarray:
        return self._lru.hit_mask(np.asarray(keys, dtype=np.int64))

    def residents(self) -> Tuple[int, ...]:
        return self._lru.residents()

    def clear(self) -> None:
        self._lru.clear()

    def __len__(self) -> int:
        return len(self._lru)

    def __contains__(self, key: int) -> bool:
        return key in self._lru


@register_cache_policy(
    "static", description="static pinning of priority-ordered pages"
)
class StaticPolicy(CachePolicy):
    """Static pinning: a fixed resident set, no replacement.

    The first ``capacity`` entries of ``priority_pages`` (the
    degree-ordered hot pages the design context computes) are pinned
    up front; membership is one sorted lookup and never changes the
    set.  ``priority_pages`` is required (:class:`ConfigError`
    without it).
    """

    name = "static"

    def __init__(self, capacity: int, priority_pages=None):
        super().__init__(capacity)
        if priority_pages is None:
            raise ConfigError(
                "the static cache policy pins priority_pages; none given"
            )
        pages = np.asarray(priority_pages, dtype=np.int64)[: self.capacity]
        self._pinned: Dict[int, None] = dict.fromkeys(pages.tolist())
        self._sorted = np.sort(
            np.fromiter(self._pinned, dtype=np.int64, count=len(self._pinned))
        )

    def access(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.int64)
        residents = self._sorted
        if residents.size == 0:
            return np.zeros(keys.size, dtype=bool)
        pos = np.searchsorted(residents, keys)
        pos[pos >= residents.size] = residents.size - 1
        return residents[pos] == keys

    def residents(self) -> Tuple[int, ...]:
        return tuple(self._pinned)

    def clear(self) -> None:
        """Preloaded pins survive ``clear``: there is nothing to drop."""

    def __len__(self) -> int:
        return len(self._pinned)

    def __contains__(self, key: int) -> bool:
        return key in self._pinned


@register_cache_policy(
    "clock", description="CLOCK (second-chance) frequency policy"
)
class ClockPolicy(CachePolicy):
    """CLOCK: one reference bit per slot, second-chance eviction.

    Hits and inserts set the slot's reference bit; on overflow the
    clock hand sweeps, clearing reference bits until it finds a cold
    slot to evict.  Approximates LRU-with-frequency at O(1) state per
    slot -- the shape of GIDS's GPU software cache bookkeeping.
    """

    name = "clock"

    def __init__(self, capacity: int, priority_pages=None):
        super().__init__(capacity)
        self._index: Dict[int, int] = {}   # key -> slot
        self._keys: list = []              # slot -> key
        self._ref: list = []               # slot -> reference bit
        self._hand = 0

    def _insert(self, key: int) -> None:
        if len(self._keys) < self.capacity:
            self._index[key] = len(self._keys)
            self._keys.append(key)
            self._ref.append(True)
            return
        while self._ref[self._hand]:
            self._ref[self._hand] = False
            self._hand = (self._hand + 1) % self.capacity
        victim = self._keys[self._hand]
        del self._index[victim]
        self._keys[self._hand] = key
        self._index[key] = self._hand
        self._ref[self._hand] = True
        self._hand = (self._hand + 1) % self.capacity

    def access(self, keys: np.ndarray) -> np.ndarray:
        slot_of, ref = self._index.get, self._ref
        out = []
        for k in np.asarray(keys, dtype=np.int64).tolist():
            slot = slot_of(k)
            if slot is not None:
                ref[slot] = True
                out.append(True)
            else:
                self._insert(k)
                out.append(False)
        return np.array(out, dtype=bool)

    def residents(self) -> Tuple[int, ...]:
        return tuple(self._keys)

    def reference_bits(self) -> Tuple[bool, ...]:
        """Per-slot reference bits (parity tests compare full state)."""
        return tuple(self._ref)

    def clear(self) -> None:
        self._index.clear()
        self._keys.clear()
        self._ref.clear()
        self._hand = 0

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: int) -> bool:
        return key in self._index
