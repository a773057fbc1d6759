"""Registered cache replacement policies.

A cache policy owns the *membership* question of one cache tier: given
a batch of page keys, which are resident (hit) and which must be
fetched (miss, insert-on-miss)?  Policies register through
``@register_cache_policy`` exactly like design points and execution
backends register through their registries, so third-party policies
plug in without touching this module::

    @register_cache_policy("my-policy", description="...")
    class MyPolicy(CachePolicy):
        ...

``access_scalar`` is each policy's one-key-at-a-time loop, and
``access`` answers a batch through it unless the policy's optional
``_batch_access`` fast path answers first.  Only ``static`` has one:
its frozen resident set makes membership one sorted lookup.  ``lru``
is the shared :class:`~repro.memory.lru.ExactLRU` and ``clock`` its
own loop; their callers pass de-duplicated, evicting batches, where an
eviction-free shortcut never answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.memory.lru import ExactLRU

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

    Subclasses implement ``access_scalar`` (the reference loop) and
    may override ``_batch_access`` with a vectorized path (return
    ``None`` to request a scalar replay).  ``priority_pages`` is an
    optional page-ID array in descending priority order; replacement
    policies ignore it, the static pinning policy reads its pinned set
    from it.
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
        return None

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

    def access_scalar(self, keys: np.ndarray) -> np.ndarray:
        return self._lru.hit_mask(keys)

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

    def access_scalar(self, keys: np.ndarray) -> np.ndarray:
        slot_of, ref = self._index.get, self._ref
        out = []
        for k in np.asarray(keys, dtype=np.int64).tolist():
            slot = slot_of(k)
            if slot is not None:
                ref[slot] = True
                out.append(True)
            else:
                self._insert_scalar(k)
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
