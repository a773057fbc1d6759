"""Contended resources for the discrete-event engine.

Three primitives cover every contention point in the SmartSAGE models:

* :class:`Resource` -- ``capacity`` interchangeable slots with a FIFO wait
  queue.  Models SSD flash channels, embedded cores, the page-cache lock.
* :class:`Store` -- a bounded FIFO buffer of items.  Models the GPU work
  queue in the producer/consumer training pipeline.
* :class:`BandwidthLink` -- a shared link where each transfer occupies the
  link for ``bytes / bandwidth`` seconds.  Models PCIe links and DMA.

Each primitive tracks utilization so experiments can report busy fractions.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.errors import SimulationError
from repro.sim.engine import SimEvent, Simulator

__all__ = ["Resource", "Store", "BandwidthLink"]


class Resource:
    """``capacity`` slots handed out FIFO.

    Usage inside a process (the uncontended fast path grants
    synchronously without allocating a :class:`SimEvent`; the event
    path is taken only when the resource is saturated)::

        if not resource.try_acquire():
            yield resource.acquire()
        try:
            yield service_time
        finally:
            resource.release()

    Hot loops issue millions of uncontended grant/release cycles, so
    :meth:`try_acquire` is the churn fast path: no event object, no
    event-queue round trip.  The per-event reference, where every
    acquisition allocates and schedules a :class:`SimEvent`, is
    :func:`repro.perf.reference.event_grants`, which only the parity
    tests and the ``resource-churn`` benchmark use.
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = "resource"):
        if capacity < 1:
            raise SimulationError(f"{name}: capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        #: FIFO of (event, wait_started) -- the start time rides on the
        #: waiter entry itself, so a waiter that is cancelled or never
        #: granted leaves no bookkeeping behind (the historical
        #: ``id(event)``-keyed side table leaked one entry per
        #: ungranted waiter and could collide after garbage collection
        #: reused an event's id)
        self._waiters: Deque[tuple] = deque()
        # utilization accounting
        self._busy_area = 0.0      # integral of in_use over time
        self._last_change = sim.now
        self._acquisitions = 0
        self._wait_time_total = 0.0

    # -- accounting -----------------------------------------------------

    def _account(self) -> None:
        # Coalesced: grant/release bursts at one timestamp contribute
        # zero area, so only the first state change after the clock
        # moves pays the accounting arithmetic.
        now = self.sim.now
        if now != self._last_change:
            self._busy_area += self._in_use * (now - self._last_change)
            self._last_change = now

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Mean busy fraction over ``elapsed`` (defaults to sim.now)."""
        self._account()
        horizon = elapsed if elapsed is not None else self.sim.now
        if horizon <= 0:
            return 0.0
        return self._busy_area / (horizon * self.capacity)

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    @property
    def mean_wait_s(self) -> float:
        if self._acquisitions == 0:
            return 0.0
        return self._wait_time_total / self._acquisitions

    # -- acquire/release ---------------------------------------------------

    def try_acquire(self) -> bool:
        """Synchronous uncontended grant: no event, no scheduling.

        Returns ``True`` and takes a slot when one is free; returns
        ``False`` (take the :meth:`acquire` event path) when the
        resource is saturated.  A successful fast grant is
        indistinguishable from an immediate event grant: same slot
        accounting, same zero recorded wait.
        """
        if self._in_use >= self.capacity:
            return False
        self._account()
        self._in_use += 1
        self._acquisitions += 1
        return True

    def acquire(self) -> SimEvent:
        """Event that fires once a slot is granted to the caller."""
        ev = self.sim.event()
        if self._in_use < self.capacity:
            self._grant(ev, self.sim.now)
        else:
            self._waiters.append((ev, self.sim.now))
        return ev

    def _grant(self, ev: SimEvent, started: float) -> None:
        self._account()
        self._in_use += 1
        self._acquisitions += 1
        waited = self.sim.now - started
        if waited:
            self._wait_time_total += waited
        ev.succeed(self)

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError(f"{self.name}: release without acquire")
        self._account()
        self._in_use -= 1
        if self._waiters:
            ev, started = self._waiters.popleft()
            self._grant(ev, started)


class Store:
    """A bounded FIFO buffer with blocking put/get."""

    def __init__(
        self, sim: Simulator, capacity: int = 0, name: str = "store"
    ):
        # capacity <= 0 means unbounded
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[SimEvent] = deque()
        self._putters: Deque[tuple] = deque()  # (event, item)
        self.total_put = 0
        self.total_got = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_full(self) -> bool:
        return self.capacity > 0 and len(self._items) >= self.capacity

    def put(self, item: Any) -> SimEvent:
        """Event that fires once ``item`` has entered the buffer."""
        ev = self.sim.event()
        if self._getters:
            # Hand the item straight to a waiting consumer.
            getter = self._getters.popleft()
            self.total_put += 1
            self.total_got += 1
            getter.succeed(item)
            ev.succeed(None)
        elif not self.is_full:
            self._items.append(item)
            self.total_put += 1
            ev.succeed(None)
        else:
            self._putters.append((ev, item))
        return ev

    def get(self) -> SimEvent:
        """Event whose value is the next item, once available."""
        ev = self.sim.event()
        if self._items:
            item = self._items.popleft()
            self.total_got += 1
            ev.succeed(item)
            self._drain_putters()
        else:
            self._getters.append(ev)
        return ev

    def _drain_putters(self) -> None:
        while self._putters and not self.is_full:
            put_ev, item = self._putters.popleft()
            self._items.append(item)
            self.total_put += 1
            put_ev.succeed(None)


class BandwidthLink:
    """A serialized link: each transfer holds the link for bytes/bandwidth.

    ``transfer`` returns a process-style generator that the caller should
    ``yield from`` (or wrap via ``sim.process``).  A per-transaction latency
    models protocol/setup overhead.
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth: float,
        latency_s: float = 0.0,
        name: str = "link",
        lanes: int = 1,
    ):
        if bandwidth <= 0:
            raise SimulationError(f"{name}: bandwidth must be positive")
        self.sim = sim
        self.bandwidth = bandwidth
        self.latency_s = latency_s
        self.name = name
        self._slots = Resource(sim, lanes, name=f"{name}.slots")
        self.bytes_moved = 0

    def transfer_time(self, nbytes: int) -> float:
        """Service time for a transfer, excluding queueing."""
        return self.latency_s + nbytes / self.bandwidth

    def transfer(self, nbytes: int):
        """Generator performing one transfer over the shared link."""
        if nbytes < 0:
            raise SimulationError(f"{self.name}: negative transfer size")
        if not self._slots.try_acquire():
            yield self._slots.acquire()
        try:
            yield self.transfer_time(nbytes)
            self.bytes_moved += nbytes
        finally:
            self._slots.release()

    def utilization(self, elapsed: Optional[float] = None) -> float:
        return self._slots.utilization(elapsed)
