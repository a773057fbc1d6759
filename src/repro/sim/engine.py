"""A small generator-based discrete-event simulation engine.

The engine follows the familiar process-interaction style (as popularized by
SimPy): simulation logic is written as Python generators that ``yield``
what they wait for, and the engine resumes each process when that fires.
A process may yield:

* a :class:`SimEvent` (a :class:`Timeout`, another :class:`Process`, a
  resource grant, an :func:`all_of` barrier) -- the process resumes with
  the event's value when it fires, or has the event's exception thrown
  into it if the event failed.  Yielding an event that already fired
  resumes the process at the current time;
* ``None`` -- resume at the same simulation time, after the work already
  scheduled for that time;
* a non-negative number (``int``, ``float`` or a numpy integer/floating
  scalar) -- a plain delay: resume that many simulated seconds later, in
  exactly the queue slot ``sim.timeout(delay)`` would have taken, but
  without allocating the :class:`Timeout`.

The event queue holds zero-argument callables -- *hops*.  An event firing,
a process starting or resuming after ``None`` or a delay, and a
:meth:`Simulator.call_at` callback are one hop each, dispatched in
(time, sequence) order; :attr:`Simulator.processed_events` counts
dispatched hops.

Only the features the SmartSAGE models need are implemented, which keeps the
engine small enough to reason about and test exhaustively:

* :class:`Simulator` -- the event loop and clock
* :class:`SimEvent` -- a one-shot event processes can wait on
* :class:`Timeout` -- an event that fires after a delay
* :class:`Process` -- a running generator (itself awaitable)
* :func:`all_of` -- barrier over several events

Resources and stores live in :mod:`repro.sim.resources`.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, List, Optional

import numpy as np

from repro.errors import SimulationError

__all__ = ["Simulator", "SimEvent", "Timeout", "Process", "all_of"]

#: types a delay may have (``bool`` is excluded explicitly: it is an int)
_DELAY_TYPES = (int, float, np.integer, np.floating)


def _check_delay(delay: Any, owner: str) -> Any:
    """The one delay check shared by :class:`Timeout` and plain-delay
    yields: ``delay`` must be a non-negative, non-NaN number."""
    if type(delay) is bool or not isinstance(delay, _DELAY_TYPES):
        raise SimulationError(
            f"{owner}: delay must be a number, got {delay!r}"
        )
    if not delay >= 0:   # also rejects NaN
        raise SimulationError(f"{owner}: invalid delay {delay!r}")
    return delay


class SimEvent:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; calling :meth:`succeed` (or :meth:`fail`)
    schedules it to fire at the current simulation time, waking every
    process that yielded it.
    """

    __slots__ = ("sim", "_callbacks", "_triggered", "_value", "_failed")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        #: waiters; ``None`` once the event has been dispatched
        self._callbacks: Optional[List[Callable[["SimEvent"], None]]] = []
        self._triggered = False
        self._value: Any = None
        self._failed = False

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def value(self) -> Any:
        return self._value

    def succeed(self, value: Any = None) -> "SimEvent":
        """Mark the event as fired with ``value`` and wake waiters."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._value = value
        sim = self.sim
        sim.call_at(sim.now, self._dispatch)
        return self

    def fail(self, exc: BaseException) -> "SimEvent":
        """Mark the event as failed; waiters will see ``exc`` raised."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._failed = True
        self._value = exc
        sim = self.sim
        sim.call_at(sim.now, self._dispatch)
        return self

    def add_callback(self, fn: Callable[["SimEvent"], None]) -> None:
        callbacks = self._callbacks
        if callbacks is None:
            # Already dispatched: run it as a hop at the current time.
            sim = self.sim
            sim.call_at(sim.now, lambda: fn(self))
        else:
            callbacks.append(fn)

    def _dispatch(self) -> None:
        callbacks = self._callbacks
        self._callbacks = None
        for fn in callbacks:
            fn(self)


class Timeout(SimEvent):
    """An event that fires ``delay`` seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float):
        if type(delay) is not float or not delay >= 0.0:
            _check_delay(delay, "timeout")
        super().__init__(sim)
        self.delay = delay
        self._triggered = True  # scheduled immediately, fires later
        sim.call_at(sim.now + delay, self._dispatch)


class Process(SimEvent):
    """A running generator; also an event that fires when it returns.

    The generator yields events, ``None`` or plain delays (see the module
    docstring); the value sent back is the fired event's value, or
    ``None`` after ``None`` or a delay.
    """

    __slots__ = ("_gen", "name")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        super().__init__(sim)
        self._gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        # Start on the next event-loop iteration at the current time.
        sim.call_at(sim.now, self._advance)

    def _advance(self) -> None:
        """Resume with ``None``: the start, ``yield None`` and delays."""
        try:
            target = self._gen.send(None)
        except Exception as exc:
            self._stopped(exc)
            return
        self._wait_on(target)

    def _resume(self, event: SimEvent) -> None:
        if event._failed:
            self._throw(event._value)
            return
        try:
            target = self._gen.send(event._value)
        except Exception as exc:
            self._stopped(exc)
            return
        self._wait_on(target)

    def _throw(self, exc: BaseException) -> None:
        try:
            target = self._gen.throw(exc)
        except Exception as err:
            self._stopped(err)
            return
        self._wait_on(target)

    def _stopped(self, exc: Exception) -> None:
        """The generator returned (``StopIteration``) or raised."""
        if isinstance(exc, StopIteration):
            if not self._triggered:
                self.succeed(exc.value)
        elif not self._triggered:
            self.fail(exc)
        else:
            raise exc

    def _wait_on(self, target: Any) -> None:
        sim = self.sim
        if type(target) is float and target >= 0.0:
            sim.call_at(sim.now + target, self._advance)
        elif isinstance(target, SimEvent):
            target.add_callback(self._resume)
        elif target is None:
            sim.call_at(sim.now, self._advance)
        elif type(target) is bool or not isinstance(target, _DELAY_TYPES):
            raise SimulationError(
                f"process {self.name!r} yielded non-event {target!r}"
            )
        else:
            delay = _check_delay(target, f"process {self.name!r}")
            sim.call_at(sim.now + delay, self._advance)

    def interrupt(self, reason: str = "interrupted") -> None:
        """Raise :class:`SimulationError` inside the process."""
        sim = self.sim
        sim.call_at(
            sim.now, lambda: self._throw(SimulationError(reason))
        )


class _AllOf(SimEvent):
    """Fires when every child event has fired; value is the list of values."""

    __slots__ = ("_remaining", "_values")

    def __init__(self, sim: "Simulator", events: List[SimEvent]):
        super().__init__(sim)
        self._remaining = len(events)
        self._values: List[Any] = [None] * len(events)
        if not events:
            self.succeed([])
            return
        for i, ev in enumerate(events):
            ev.add_callback(self._make_callback(i))

    def _make_callback(self, index: int) -> Callable[[SimEvent], None]:
        def on_fire(event: SimEvent) -> None:
            if self._triggered:
                return
            if event._failed:
                self.fail(event.value)
                return
            self._values[index] = event.value
            self._remaining -= 1
            if self._remaining == 0:
                self.succeed(list(self._values))

        return on_fire


def all_of(sim: "Simulator", events: Iterable[SimEvent]) -> SimEvent:
    """Return an event that fires once all ``events`` have fired."""
    return _AllOf(sim, list(events))


class Simulator:
    """The event loop: a clock plus a priority queue of pending hops.

    With ``coalesce=True`` (the default) hops scheduled for the same
    timestamp share one heap entry -- a *bucket* list appended to in
    O(1) -- instead of each paying a ``heappush``.  Nearly every hop a
    process model schedules is at the current time (``succeed``,
    immediate resumes), so bucketing removes most of the heap traffic
    while dispatching in exactly the legacy (time, sequence) order.
    ``coalesce=False`` keeps the one-entry-per-hop heap as the scalar
    reference implementation for parity tests and benchmarks.
    """

    def __init__(self, coalesce: bool = True):
        self.now: float = 0.0
        self._queue: List = []   # (time, seq, hop-or-bucket)
        self._seq = 0
        self._event_count = 0
        self._coalesce = coalesce
        self._buckets = {}       # open buckets: time -> list of hops
        self._ready = deque()    # current-time bucket being drained

    # -- event construction helpers ------------------------------------

    def event(self) -> SimEvent:
        """A fresh pending event (trigger it manually with ``succeed``)."""
        return SimEvent(self)

    def timeout(self, delay: float) -> Timeout:
        """An event that fires ``delay`` simulated seconds from now."""
        return Timeout(self, delay)

    def process(self, gen: Generator, name: str = "") -> Process:
        """Register a generator as a running process."""
        return Process(self, gen, name=name)

    def schedule(self, delay: float, fn: Callable[[], None]) -> SimEvent:
        """Run a plain callback after ``delay`` seconds."""
        ev = self.timeout(delay)
        ev.add_callback(lambda _ev: fn())
        return ev

    def call_at(self, when: float, fn: Callable[[], None]) -> None:
        """Schedule the zero-argument ``fn`` as one hop at time ``when``.

        The allocation-free primitive under events, process resumes and
        callback chains: no event object is built.  ``when`` must not be
        earlier than :attr:`now` (the loop raises if time goes
        backwards).
        """
        if self._coalesce:
            bucket = self._buckets.get(when)
            if bucket is not None:
                bucket.append(fn)
                return
            self._seq += 1
            bucket = [fn]
            self._buckets[when] = bucket
            heapq.heappush(self._queue, (when, self._seq, bucket))
            return
        self._seq += 1
        heapq.heappush(self._queue, (when, self._seq, fn))

    # -- execution --------------------------------------------------------

    def _has_pending(self) -> bool:
        return bool(self._ready) or bool(self._queue)

    def _next_time(self) -> float:
        """Timestamp of the next hop to dispatch (queue must be non-empty)."""
        return self.now if self._ready else self._queue[0][0]

    def _pop_time(self):
        """Advance the clock to the earliest queue entry and return it."""
        when, _seq, entry = heapq.heappop(self._queue)
        if when < self.now - 1e-18:
            raise SimulationError("time went backwards")
        self.now = when
        if self._coalesce and self._buckets.get(when) is entry:
            # Close the bucket: same-time hops scheduled from now on
            # open a fresh bucket, dispatched after this one drains --
            # exactly the legacy sequence order.
            del self._buckets[when]
        return entry

    def step(self) -> bool:
        """Dispatch the next hop; returns False when the queue is empty."""
        if self._ready:
            fn = self._ready.popleft()
        elif not self._queue:
            return False
        elif self._coalesce:
            self._ready.extend(self._pop_time())
            fn = self._ready.popleft()
        else:
            fn = self._pop_time()
        self._event_count += 1
        fn()
        return True

    def run_until_triggered(self, event: SimEvent) -> bool:
        """Dispatch hops until ``event`` is triggered.

        Returns ``True`` once it is, ``False`` if the queue drains first.
        Equivalent to looping on :meth:`step` (same clock, same
        :attr:`processed_events`), inlined with local bindings and one
        batched counter update.
        """
        ready = self._ready
        popleft = ready.popleft
        queue = self._queue
        buckets = self._buckets
        heappop = heapq.heappop
        coalesce = self._coalesce
        count = 0
        try:
            while not event._triggered:
                if ready:
                    fn = popleft()
                elif queue:
                    when, _seq, fn = heappop(queue)
                    if when < self.now - 1e-18:
                        raise SimulationError("time went backwards")
                    self.now = when
                    if coalesce:
                        if buckets.get(when) is fn:
                            del buckets[when]
                        ready.extend(fn)
                        fn = popleft()
                else:
                    return False
                count += 1
                fn()
            return True
        finally:
            self._event_count += count

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or the clock passes ``until``.

        Returns the final simulation time.
        """
        if until is None:
            # a fresh event never triggers, so this drains the queue
            self.run_until_triggered(SimEvent(self))
            return self.now
        while self._has_pending() and self._next_time() <= until:
            self.step()
        self.now = max(self.now, until) if self._has_pending() else self.now
        return self.now

    def run_until_complete(self, proc: Process) -> Any:
        """Run until ``proc`` finishes; return its value or raise its error."""
        self.run_until_triggered(proc)
        # Triggered is not dispatched: wake the waiters still queued on
        # it (``_callbacks`` is None once dispatched, [] if none waited).
        while proc._callbacks:
            if not self.step():
                break
        if not proc._triggered:
            raise SimulationError(
                f"deadlock: process {proc.name!r} never completed"
            )
        if proc._failed:
            raise proc.value
        return proc.value

    @property
    def processed_events(self) -> int:
        """Number of hops dispatched so far (for efficiency tests)."""
        return self._event_count
