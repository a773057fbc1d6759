"""Pure scalar references for the simulator's fast paths.

Each function or class here is the plain one-at-a-time version of a
production kernel, kept so that the parity tests can prove the fast
path bit-identical and the micro benchmarks can time one against the
other.  Nothing under ``repro`` imports this module except
:mod:`repro.perf.benchmarks` (``tests/test_reference_imports.py``
checks that), so production code has exactly one path each.

* :class:`ReferenceSimulator` -- the one-heap-entry-per-hop event loop
  that :class:`repro.sim.engine.Simulator`'s same-time buckets replaced;
* :func:`event_grants` -- every :class:`repro.sim.resources.Resource`
  acquisition through a scheduled grant event, without the synchronous
  ``try_acquire`` grant;
* :func:`apply_remap_scalar` -- the per-LPN dict probe behind
  :meth:`repro.storage.ftl.FlashTranslationLayer.translate`'s sorted
  remap lookup;
* :func:`fault_around_windows_scalar` -- the per-extent loop behind
  :func:`repro.host.mmap_io.fault_around_windows`;
* :func:`combine` -- the one-point closed-form fold behind
  :func:`repro.pipeline.backends.analytic.combine_batch`;
* :func:`run_trace_scalar` -- the per-access loop behind
  :meth:`repro.memory.llc.CacheSim.run_trace`'s set-parallel rounds;
* :func:`noreplace_positions_scalar` -- the per-row ``rng.choice``
  loop behind :meth:`repro.graph.csr.CSRGraph.sample_neighbors`'s
  batched draw without replacement.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

from repro.memory.llc import CacheStats
from repro.pipeline.backends.base import PipelineResult
from repro.sim.engine import Simulator
from repro.sim.resources import Resource

__all__ = [
    "ReferenceSimulator",
    "event_grants",
    "apply_remap_scalar",
    "fault_around_windows_scalar",
    "combine",
    "run_trace_scalar",
    "noreplace_positions_scalar",
]


class ReferenceSimulator(Simulator):
    """The event loop with one heap entry per hop: no same-time buckets.

    Every hop pays its own ``heappush`` as a one-hop bucket ``[fn]``
    that is never reopened, so dispatch follows the heap's (time,
    sequence) order alone.  Clock, dispatch order and
    :attr:`processed_events` match :class:`Simulator` exactly.
    """

    def call_at(self, when: float, fn: Callable[[], None]) -> None:
        self._seq += 1
        heapq.heappush(self._queue, (when, self._seq, [fn]))


def _decline(self) -> bool:
    return False


@contextmanager
def event_grants() -> Iterator[None]:
    """Make every ``Resource.try_acquire`` decline while active.

    Each acquisition then takes the :meth:`Resource.acquire` event
    path.  This patches the class, not one instance, because model code
    builds its resources deep inside pipelines; the original method is
    restored on exit.
    """
    saved = Resource.try_acquire
    Resource.try_acquire = _decline
    try:
        yield
    finally:
        Resource.try_acquire = saved


def apply_remap_scalar(ftl, lpns: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Apply ``ftl``'s page rewrites to a translated batch, one LPN at
    a time (``out`` is updated in place and returned)."""
    flat = out.reshape(-1)
    for i, lpn in enumerate(lpns.ravel()):
        mapped = ftl._remap.get(int(lpn))
        if mapped is not None:
            flat[i] = mapped
    return out


def fault_around_windows_scalar(
    misses_per_extent: np.ndarray, window: int
) -> np.ndarray:
    """Fault-around window sizes: the historical per-extent while loop."""
    window_sizes = []
    for m in np.asarray(misses_per_extent, dtype=np.int64):
        m = int(m)
        while m > 0:
            take = min(window, m)
            window_sizes.append(take)
            m -= take
    return np.asarray(window_sizes, dtype=np.int64)


def combine(
    design: str,
    samp: float,
    feat: float,
    trans: float,
    train: float,
    n_batches: int,
    n_workers: int,
) -> PipelineResult:
    """Fold mean phase costs into the steady-state result, one point
    in Python scalars."""
    produce = samp + feat
    consume = trans + train
    interval = max(consume, produce / n_workers)
    elapsed = produce + consume + (n_batches - 1) * interval
    busy = n_batches * consume
    return PipelineResult(
        design=design,
        mode="analytic",
        n_batches=n_batches,
        n_workers=n_workers,
        elapsed_s=elapsed,
        gpu_busy_s=busy,
        gpu_idle_fraction=max(0.0, 1.0 - busy / elapsed),
        phase_means={
            "neighbor_sampling": samp,
            "feature_lookup": feat,
            "cpu_to_gpu": trans,
            "gnn_training": train,
        },
    )


def run_trace_scalar(cache, addrs: np.ndarray) -> CacheStats:
    """Replay ``addrs`` through ``cache`` (a
    :class:`~repro.memory.llc.CacheSim`) one access at a time; returns
    the stats of this trace and leaves the same state as
    :meth:`~repro.memory.llc.CacheSim.run_trace`."""
    line_ids = np.asarray(addrs, dtype=np.int64) // cache.params.line_bytes
    sets = line_ids % cache.num_sets
    tags = line_ids // cache.num_sets
    tags_arr, used_arr = cache._tags, cache._used
    tick = cache._tick
    hits = 0
    for i in range(line_ids.size):
        s = sets[i]
        t = tags[i]
        tick += 1
        row = tags_arr[s]
        found = -1
        for w in range(cache.ways):
            if row[w] == t:
                found = w
                break
        if found >= 0:
            used_arr[s, found] = tick
            hits += 1
        else:
            victim = int(np.argmin(used_arr[s]))
            tags_arr[s, victim] = t
            used_arr[s, victim] = tick
    cache._tick = tick
    misses = line_ids.size - hits
    cache.stats.hits += hits
    cache.stats.misses += misses
    return CacheStats(hits, misses)


def noreplace_positions_scalar(
    degs: np.ndarray,
    starts: np.ndarray,
    fanout: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Positions into ``CSRGraph.indices`` of a draw without
    replacement of up to ``fanout`` neighbors per row (degree
    ``degs``, extent start ``starts``): one ``rng.choice`` per
    oversized row."""
    pos_chunks = []
    for i in range(degs.size):
        deg = degs[i]
        if deg == 0:
            continue
        if deg <= fanout:
            pos_chunks.append(starts[i] + np.arange(deg, dtype=np.int64))
        else:
            sel = rng.choice(deg, size=fanout, replace=False)
            pos_chunks.append(starts[i] + np.asarray(sel, dtype=np.int64))
    if not pos_chunks:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(pos_chunks)
