"""Batched kernels for the exact-LRU caches of the storage path.

Three models share the same structure -- an :class:`OrderedDict` used as
an exact LRU with insert-on-miss (:class:`~repro.host.scratchpad.Scratchpad`,
:class:`~repro.host.pagecache.OSPageCache`,
:class:`~repro.storage.pagebuffer.PageBuffer`) -- and all of them sit on
hot paths that receive whole arrays of keys per call.  The kernel here
vectorizes the common *eviction-free* case: when the batch's distinct
new keys fit inside the remaining capacity, no entry can be evicted
mid-batch, so

* an access hits iff its key is resident *or* appeared earlier in the
  batch (any earlier access, hit or miss, made it resident and nothing
  evicts it), and
* the final recency order is the old order with every touched key moved
  to the back in order of its *last* occurrence.

Both facts are computable with ``np.unique`` plus one dict operation per
*distinct* key instead of per access, which is where the speedup comes
from on the duplicate-heavy page/node streams this workload produces
(expanded extents and sampling frontiers re-reference hub entries
constantly).  When the batch could overflow capacity the kernel returns
``None`` and the caller must replay its scalar reference loop, so
results are bit-identical in every case.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

import numpy as np

__all__ = ["lru_batch_access", "lru_scalar_access"]


def lru_batch_access(
    lru: "OrderedDict[int, None]",
    capacity: int,
    keys: np.ndarray,
) -> Optional[np.ndarray]:
    """Touch ``keys`` in order against an exact LRU; per-key hit mask.

    Mutates ``lru`` exactly as the scalar loop would (same membership,
    same recency order).  Returns ``None`` -- leaving ``lru`` untouched
    -- when the batch might trigger evictions; callers then fall back to
    :func:`lru_scalar_access`.
    """
    keys = np.asarray(keys, dtype=np.int64)
    n = int(keys.size)
    if n == 0:
        return np.zeros(0, dtype=bool)
    if n < 96:
        return None  # fixed numpy overhead beats the scalar loop's total
    if np.all(keys[1:] > keys[:-1]):
        # strictly increasing (a sorted page set): duplicate-free, so
        # the distinct-key test below would give up after the sort
        return None
    # Pack (key, position) into one int64 so a plain (unstable) sort
    # still yields, per key group, its occurrences in original order --
    # group head = first occurrence, group tail = last occurrence.
    lo = int(keys.min())
    span = int(keys.max()) - lo + 1
    if span > (np.iinfo(np.int64).max - n) // n:
        return None  # packing would overflow; replay scalar
    packed = (keys - lo) * n + np.arange(n, dtype=np.int64)
    packed.sort()
    positions = packed % n
    gids = packed // n
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    np.not_equal(gids[1:], gids[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    n_distinct = int(starts.size)
    if n_distinct * 2 > n:
        # Nearly duplicate-free batch: the per-distinct-key dict work
        # matches the scalar loop's, so the sort cannot pay for itself.
        return None
    first_idx = positions[starts]
    last_idx = positions[np.append(starts[1:] - 1, n - 1)]
    key_list = (gids[starts] + lo).tolist()
    resident = np.fromiter(
        (k in lru for k in key_list), dtype=bool, count=n_distinct
    )
    n_new = n_distinct - int(resident.sum())
    if len(lru) + n_new > capacity:
        return None
    # Eviction-free: only the first occurrence of a new key misses.
    mask = np.ones(n, dtype=bool)
    mask[first_idx[~resident]] = False
    # Recency update: touched keys become MRU in last-occurrence order.
    move = lru.move_to_end
    for i in np.argsort(last_idx).tolist():
        k = key_list[i]
        if resident[i]:
            move(k)
        else:
            lru[k] = None
    return mask


def lru_scalar_access(
    lru: "OrderedDict[int, None]",
    capacity: int,
    keys: np.ndarray,
) -> np.ndarray:
    """Reference kernel: one key at a time (evicting LRU on overflow)."""
    keys = np.asarray(keys)
    mask = np.zeros(int(keys.size), dtype=bool)
    for i, k in enumerate(keys.tolist()):
        if k in lru:
            lru.move_to_end(k)
            mask[i] = True
        else:
            lru[k] = None
            if len(lru) > capacity:
                lru.popitem(last=False)
    return mask
