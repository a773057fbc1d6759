"""Content-addressed build cache shared across experiments.

Materializing a scaled dataset and sampling its mini-batch workload pool
dominate experiment start-up cost, and the same (dataset, edge budget,
seed) tuple recurs across most figures.  A :class:`ContentCache` keys
each expensive artifact by a stable hash of everything that determines
its content, so a campaign builds each dataset / workload pool exactly
once and every experiment -- on any worker thread -- reuses it.

The cache is *activated* for a dynamic scope::

    with activated(ContentCache()) as cache:
        run_experiments()          # scaled_dataset() etc. now memoize
    print(cache.stats())

While no cache is active, :func:`cached` degrades to calling the builder
directly, so library code can route through it unconditionally.  Builds
of the *same* key serialize on a per-key lock (the second thread waits
and reuses the first thread's artifact); builds of different keys run
concurrently.

A campaign's cache is unbounded and lives for the campaign.  A service
pool worker holds one for its whole life (:func:`activate` in its
initializer), so it gets a byte budget with least-recently-used
eviction, and a :class:`~repro.graph.store.GraphStore` that
:func:`~repro.api.session.scaled_dataset` reads before it generates a
graph and writes after.
"""

from __future__ import annotations

import hashlib
import json
import threading
import types
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.errors import ConfigError

__all__ = [
    "ContentCache",
    "artifact_nbytes",
    "canonical_json",
    "spec_key",
    "activate",
    "activated",
    "active_cache",
    "cached",
]


def _canonical_default(value: Any) -> Any:
    """JSON substitute for non-JSON key material, or ``ConfigError``.

    Content keys must be identical across processes, platforms, and
    numpy versions, so the historical ``repr`` fallback is not safe:
    ``repr(np.int64(3))`` is ``"3"`` on numpy>=2 but ``"3"`` vs
    ``"np.int64(3)"`` across versions, and object ``repr``\\ s embed
    addresses.  Numpy scalars map to the equivalent Python scalars,
    arrays to a dtype/shape/data triple, bytes to hex; anything else is
    rejected loudly instead of silently producing an unstable key.
    """
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return {
            "__ndarray__": value.dtype.str,
            "shape": list(value.shape),
            "data": value.tolist(),
        }
    if isinstance(value, (bytes, bytearray)):
        return {"__bytes__": bytes(value).hex()}
    if isinstance(value, (set, frozenset)):
        return {
            "__set__": sorted(
                json.dumps(v, sort_keys=True, default=_canonical_default)
                for v in value
            )
        }
    raise ConfigError(
        f"cannot build a stable content key from a "
        f"{type(value).__name__} value ({value!r}); use JSON-compatible "
        f"values or numpy scalars/arrays"
    )


def canonical_json(data: Any) -> str:
    """Deterministic JSON encoding of key material (sorted, compact).

    The one encoder every content key and disk-store record goes
    through, so "byte-identical" is well-defined across processes.
    Raises :class:`~repro.errors.ConfigError` for values with no stable
    canonical form.
    """
    return json.dumps(
        data,
        sort_keys=True,
        separators=(",", ":"),
        default=_canonical_default,
    )


def spec_key(kind: str, **fields: Any) -> str:
    """Stable content hash for a build request.

    ``fields`` must identify everything that determines the artifact's
    content (names, sizes, seeds...).  Values are canonicalized through
    :func:`canonical_json`: sorted keys, numpy scalars/arrays mapped to
    portable forms, and genuinely uncanonicalizable values rejected
    with :class:`~repro.errors.ConfigError` (the old ``repr`` fallback
    produced keys that differed across processes and numpy versions).
    """
    blob = canonical_json([kind, fields])
    return f"{kind}:{hashlib.sha256(blob.encode()).hexdigest()}"


class _Entry:
    __slots__ = ("lock", "built", "value")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.built = False
        self.value: Any = None


def artifact_nbytes(value: Any) -> int:
    """Bytes of the numpy arrays reachable from ``value``.

    Walks lists, tuples, sets, dict values and instance attributes
    (not modules, classes or callables), counting each array once.
    """
    total = 0
    seen = set()
    stack = [value]
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            total += item.nbytes
        elif isinstance(item, (list, tuple, set, frozenset)):
            stack.extend(item)
        elif isinstance(item, dict):
            stack.extend(item.values())
        elif (
            hasattr(item, "__dict__")
            and not callable(item)
            and not isinstance(item, types.ModuleType)
        ):
            stack.extend(vars(item).values())
    return total


class ContentCache:
    """Thread-safe map from content key to built artifact.

    ``max_bytes`` bounds the artifacts' array bytes
    (:func:`artifact_nbytes`, measured when each is built).  Past it the
    least recently used artifacts are evicted, though never the one just
    built; a later request for an evicted key rebuilds it, which yields
    the same content.  ``None`` (the default) never evicts.

    ``graph_store`` is an optional :class:`~repro.graph.store.GraphStore`
    that :func:`~repro.api.session.scaled_dataset` reads a graph from on
    a miss, before it generates one, and writes a generated graph to.
    """

    def __init__(
        self,
        max_bytes: Optional[int] = None,
        graph_store: Any = None,
    ) -> None:
        if max_bytes is not None and max_bytes < 0:
            raise ConfigError(f"max_bytes must be >= 0, got {max_bytes}")
        self.max_bytes = max_bytes
        self.graph_store = graph_store
        self._lock = threading.Lock()
        self._entries: Dict[str, _Entry] = {}
        #: bounded caches only: built key -> bytes, least recent first
        self._lru: "OrderedDict[str, int]" = OrderedDict()
        self.nbytes = 0
        self.evictions = 0
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return sum(1 for e in self._entries.values() if e.built)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            entry = self._entries.get(key)
            return entry is not None and entry.built

    def get_or_build(self, key: str, build: Callable[[], Any]) -> Any:
        """Return the artifact for ``key``, building it at most once.

        Concurrent requests for the same key serialize on a per-key
        lock; the loser of the race reuses the winner's artifact.  A
        builder that raises leaves the cache empty for that key, so a
        later call retries instead of caching the failure.
        """
        while True:
            with self._lock:
                entry = self._entries.get(key)
                if entry is None:
                    entry = _Entry()
                    self._entries[key] = entry
            with entry.lock:
                if entry.built:
                    with self._lock:
                        self.hits += 1
                        if key in self._lru:
                            self._lru.move_to_end(key)
                    return entry.value
                # a failed build (or clear()) may have evicted this
                # entry while we waited on its lock; retry with the
                # current one so a successful build is actually stored
                with self._lock:
                    if self._entries.get(key) is not entry:
                        continue
                try:
                    value = build()
                except BaseException:
                    with self._lock:
                        if self._entries.get(key) is entry:
                            del self._entries[key]
                    raise
                entry.value = value
                entry.built = True
                with self._lock:
                    self.misses += 1
                    if self.max_bytes is not None:
                        self._admit(key, artifact_nbytes(value))
                return value

    def _admit(self, key: str, size: int) -> None:
        """Account a new artifact and evict down to the budget (locked)."""
        self._lru[key] = size
        self.nbytes += size
        while self.nbytes > self.max_bytes and len(self._lru) > 1:
            old, old_size = self._lru.popitem(last=False)
            self._entries.pop(old, None)
            self.nbytes -= old_size
            self.evictions += 1

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "entries": sum(
                    1 for e in self._entries.values() if e.built
                ),
            }

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._lru.clear()
            self.nbytes = 0
            self.hits = 0
            self.misses = 0


_active: Optional[ContentCache] = None
_active_lock = threading.Lock()


def active_cache() -> Optional[ContentCache]:
    """The currently activated cache, if any."""
    return _active


def activate(cache: Optional[ContentCache]) -> Optional[ContentCache]:
    """Make ``cache`` the process-wide active cache; returns the previous
    one.  A pool worker's initializer calls this once for its life."""
    global _active
    with _active_lock:
        previous = _active
        _active = cache
    return previous


@contextmanager
def activated(cache: Optional[ContentCache] = None):
    """Activate ``cache`` (default: a fresh one) for the enclosed scope.

    Activation is process-wide (worker threads spawned inside the scope
    see the same cache); nested activations restore the outer cache on
    exit.
    """
    cache = cache if cache is not None else ContentCache()
    previous = activate(cache)
    try:
        yield cache
    finally:
        activate(previous)


def cached(kind: str, fields: Dict[str, Any], build: Callable[[], Any]) -> Any:
    """Build-through helper: memoize via the active cache, if any."""
    cache = _active
    if cache is None:
        return build()
    return cache.get_or_build(spec_key(kind, **fields), build)
