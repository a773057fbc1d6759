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
  :func:`repro.host.mmap_io.fault_around_windows`.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

from repro.sim.engine import Simulator
from repro.sim.resources import Resource

__all__ = [
    "ReferenceSimulator",
    "event_grants",
    "apply_remap_scalar",
    "fault_around_windows_scalar",
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
