"""Registered cache replacement policies (vectorized + scalar parity).

A cache policy owns the *membership* question of one cache tier: given
a batch of page keys, which are resident (hit) and which must be
fetched (miss, insert-on-miss)?  Policies register through
``@register_cache_policy`` exactly like design points and execution
backends register through their registries, so third-party policies
plug in without touching this module::

    @register_cache_policy("my-policy", description="...")
    class MyPolicy(CachePolicy):
        ...

Every built-in policy ships two kernels over one shared state:

* ``access`` -- the vectorized fast path.  Each policy vectorizes its
  *eviction-free* case (the batch's distinct new keys fit in the
  remaining capacity, so nothing can be displaced mid-batch) and
  replays the scalar loop otherwise, the same structure as
  :func:`repro.memory.lru.lru_batch_access`.
* ``access_scalar`` -- the one-key-at-a-time reference the parity
  tests (and the ``cache-tiered`` benchmark) pit the fast path
  against.  Both mutate state identically, so results are
  bit-identical in every case.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.memory.lru import lru_batch_access, lru_scalar_access

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

#: below this batch size the fixed numpy overhead beats the scalar loop
#: (same crossover the shared LRU kernel uses)
_VECTOR_MIN = 96


@dataclass(frozen=True)
class CachePolicyEntry:
    """One registered cache replacement policy."""

    name: str
    factory: Callable
    description: str = ""


_REGISTRY: Dict[str, CachePolicyEntry] = {}


def register_cache_policy(
    name: str,
    *,
    description: str = "",
    replace: bool = False,
) -> Callable:
    """Decorator registering a policy factory under ``name``.

    The factory is called as ``factory(capacity, priority_pages=...)``
    and must return a :class:`CachePolicy`.  Raises
    :class:`ConfigError` on duplicate names unless ``replace=True``.
    """
    if not name or not isinstance(name, str):
        raise ConfigError(
            f"cache policy name must be a non-empty string, got {name!r}"
        )

    def decorator(factory: Callable) -> Callable:
        if name in _REGISTRY and not replace:
            raise ConfigError(
                f"cache policy {name!r} is already registered "
                f"(by {_REGISTRY[name].factory!r}); "
                "pass replace=True to override"
            )
        _REGISTRY[name] = CachePolicyEntry(
            name=name,
            factory=factory,
            description=description
            or (factory.__doc__ or "").strip().split("\n")[0],
        )
        return factory

    return decorator


def unregister_cache_policy(name: str) -> None:
    """Remove a registered policy (experiments undo their overrides)."""
    _REGISTRY.pop(name, None)


def available_cache_policies() -> Tuple[str, ...]:
    """Registered policy names, sorted."""
    return tuple(sorted(_REGISTRY))


def cache_policy_entry(name: str) -> CachePolicyEntry:
    """The registry entry for ``name`` (ConfigError listing known)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown cache policy {name!r}; "
            f"one of {available_cache_policies()}"
        ) from None


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

    Subclasses implement ``_batch_access`` (vectorized; return ``None``
    to request a scalar replay) and ``access_scalar`` (the reference
    loop).  ``priority_pages`` is an optional page-ID array in
    descending priority order; replacement policies ignore it, the
    static pinning policy reads its pinned set from it.
    """

    name = "base"

    def __init__(self, capacity: int, priority_pages=None):
        self.capacity = int(capacity)

    def access(self, keys: np.ndarray) -> np.ndarray:
        """Per-key hit mask for one batch (updates policy state)."""
        keys = np.asarray(keys, dtype=np.int64)
        out = self._batch_access(keys)
        if out is None:
            out = self.access_scalar(keys)
        return out

    def _batch_access(self, keys: np.ndarray) -> Optional[np.ndarray]:
        raise NotImplementedError

    def access_scalar(self, keys: np.ndarray) -> np.ndarray:
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
    "lru", description="exact LRU on the shared batched kernel"
)
class LRUPolicy(CachePolicy):
    """Exact LRU, the default policy of every cache tier.

    Delegates to the batched kernel behind the host page cache,
    scratchpads, and the SSD page buffer
    (:func:`repro.memory.lru.lru_batch_access`), falling back to the
    scalar loop whenever the batch could evict.
    """

    name = "lru"

    def __init__(self, capacity: int, priority_pages=None):
        super().__init__(capacity)
        self._lru: "OrderedDict[int, None]" = OrderedDict()

    def _batch_access(self, keys: np.ndarray) -> Optional[np.ndarray]:
        return lru_batch_access(self._lru, self.capacity, keys)

    def access_scalar(self, keys: np.ndarray) -> np.ndarray:
        return lru_scalar_access(
            self._lru, self.capacity, np.asarray(keys, dtype=np.int64)
        )

    def residents(self) -> Tuple[int, ...]:
        return tuple(self._lru)

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

    With ``priority_pages`` (the degree-ordered hot pages the design
    context computes) the first ``capacity`` entries are pinned up
    front and membership is a pure vectorized lookup.  Without
    priorities the cache fills first-touch and then freezes -- the
    behavior of a preloaded cache whose warm-up happens in-band.
    """

    name = "static"

    def __init__(self, capacity: int, priority_pages=None):
        super().__init__(capacity)
        self._pinned: Dict[int, None] = {}
        self._preloaded = priority_pages is not None
        if self._preloaded:
            pages = np.asarray(priority_pages, dtype=np.int64)
            for k in pages[: self.capacity].tolist():
                self._pinned[k] = None
        self._sorted: Optional[np.ndarray] = None

    @property
    def _frozen(self) -> bool:
        return self._preloaded or len(self._pinned) >= self.capacity

    def _sorted_residents(self) -> np.ndarray:
        if self._sorted is None:
            self._sorted = np.sort(
                np.fromiter(
                    self._pinned, dtype=np.int64, count=len(self._pinned)
                )
            )
        return self._sorted

    def _batch_access(self, keys: np.ndarray) -> Optional[np.ndarray]:
        n = int(keys.size)
        if n == 0:
            return np.zeros(0, dtype=bool)
        if self._frozen:
            # membership against the frozen set: one sorted lookup,
            # no state change -- always worth vectorizing
            residents = self._sorted_residents()
            if residents.size == 0:
                return np.zeros(n, dtype=bool)
            pos = np.searchsorted(residents, keys)
            pos[pos >= residents.size] = residents.size - 1
            return residents[pos] == keys
        if n < _VECTOR_MIN:
            return None
        # fill phase: same eviction-free reasoning as the LRU kernel --
        # if every distinct new key fits, an access hits iff its key is
        # resident or appeared earlier in the batch
        uniq, first_idx = np.unique(keys, return_index=True)
        resident = np.fromiter(
            (k in self._pinned for k in uniq.tolist()),
            dtype=bool,
            count=int(uniq.size),
        )
        n_new = int(uniq.size) - int(resident.sum())
        if len(self._pinned) + n_new > self.capacity:
            return None  # batch crosses the freeze point; replay scalar
        mask = np.ones(n, dtype=bool)
        mask[first_idx[~resident]] = False
        order = np.argsort(first_idx[~resident], kind="stable")
        for k in uniq[~resident][order].tolist():
            self._pinned[k] = None
        if n_new:
            self._sorted = None
        return mask

    def access_scalar(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.int64)
        mask = np.zeros(int(keys.size), dtype=bool)
        frozen = self._frozen
        for i, k in enumerate(keys.tolist()):
            if k in self._pinned:
                mask[i] = True
            elif not frozen and len(self._pinned) < self.capacity:
                self._pinned[k] = None
                self._sorted = None
            # else: miss against the frozen set, no insert
        return mask

    def residents(self) -> Tuple[int, ...]:
        return tuple(self._pinned)

    def clear(self) -> None:
        if not self._preloaded:
            self._pinned.clear()
            self._sorted = None

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

    def _insert_scalar(self, key: int) -> None:
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

    def _batch_access(self, keys: np.ndarray) -> Optional[np.ndarray]:
        n = int(keys.size)
        if n == 0:
            return np.zeros(0, dtype=bool)
        if n < _VECTOR_MIN:
            return None
        uniq, first_idx = np.unique(keys, return_index=True)
        if int(uniq.size) * 2 > n:
            # nearly duplicate-free: per-distinct dict work matches the
            # scalar loop's, the sort cannot pay for itself
            return None
        resident = np.fromiter(
            (k in self._index for k in uniq.tolist()),
            dtype=bool,
            count=int(uniq.size),
        )
        n_new = int(uniq.size) - int(resident.sum())
        if len(self._keys) + n_new > self.capacity:
            return None  # an eviction sweep is possible; replay scalar
        # Eviction-free: only the first occurrence of a new key misses;
        # every touched slot ends with its reference bit set and the
        # hand never moves -- exactly the scalar loop's end state.
        mask = np.ones(n, dtype=bool)
        mask[first_idx[~resident]] = False
        for k in uniq[resident].tolist():
            self._ref[self._index[k]] = True
        order = np.argsort(first_idx[~resident], kind="stable")
        for k in uniq[~resident][order].tolist():
            self._index[k] = len(self._keys)
            self._keys.append(k)
            self._ref.append(True)
        return mask

    def access_scalar(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.int64)
        mask = np.zeros(int(keys.size), dtype=bool)
        for i, k in enumerate(keys.tolist()):
            slot = self._index.get(k)
            if slot is not None:
                self._ref[slot] = True
                mask[i] = True
            else:
                self._insert_scalar(k)
        return mask

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
