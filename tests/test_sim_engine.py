"""Unit tests for the discrete-event simulation engine."""

import numpy as np
import pytest

from repro.errors import ConfigError, SimulationError
from repro.pipeline.backends.base import drive
from repro.sim import Simulator, all_of
from repro.sim.resources import Resource


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    fired = []

    def proc(sim):
        yield sim.timeout(1.5)
        fired.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert fired == [1.5]
    assert sim.now == 1.5


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_sequential_timeouts_accumulate():
    sim = Simulator()
    times = []

    def proc(sim):
        for delay in (1.0, 2.0, 3.0):
            yield sim.timeout(delay)
            times.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert times == [1.0, 3.0, 6.0]


def test_two_processes_interleave():
    sim = Simulator()
    order = []

    def fast(sim):
        yield sim.timeout(1.0)
        order.append(("fast", sim.now))

    def slow(sim):
        yield sim.timeout(2.0)
        order.append(("slow", sim.now))

    sim.process(slow(sim))
    sim.process(fast(sim))
    sim.run()
    assert order == [("fast", 1.0), ("slow", 2.0)]


def test_process_return_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.0)
        return 42

    p = sim.process(proc(sim))
    assert sim.run_until_complete(p) == 42


def test_process_waits_on_process():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(3.0)
        return "child-result"

    def parent(sim):
        value = yield sim.process(child(sim))
        return (value, sim.now)

    p = sim.process(parent(sim))
    assert sim.run_until_complete(p) == ("child-result", 3.0)


def test_manual_event_wakes_waiter():
    sim = Simulator()
    ev = sim.event()
    woke = []

    def waiter(sim):
        value = yield ev
        woke.append((value, sim.now))

    def trigger(sim):
        yield sim.timeout(5.0)
        ev.succeed("ping")

    sim.process(waiter(sim))
    sim.process(trigger(sim))
    sim.run()
    assert woke == [("ping", 5.0)]


def test_event_double_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_failure_propagates_into_process():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def waiter(sim):
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(waiter(sim))
    ev.fail(ValueError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_process_exception_fails_its_event():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1.0)
        raise RuntimeError("inside")

    p = sim.process(bad(sim))
    with pytest.raises(RuntimeError, match="inside"):
        sim.run_until_complete(p)


def test_all_of_barrier():
    sim = Simulator()

    def worker(sim, delay, tag):
        yield sim.timeout(delay)
        return tag

    def parent(sim):
        procs = [
            sim.process(worker(sim, d, i)) for i, d in enumerate((3, 1, 2))
        ]
        values = yield all_of(sim, procs)
        return (values, sim.now)

    p = sim.process(parent(sim))
    values, finished = sim.run_until_complete(p)
    assert values == [0, 1, 2]
    assert finished == 3.0


def test_all_of_empty_fires_immediately():
    sim = Simulator()

    def parent(sim):
        values = yield all_of(sim, [])
        return values

    p = sim.process(parent(sim))
    assert sim.run_until_complete(p) == []


def test_run_until_time_bound():
    sim = Simulator()
    seen = []

    def ticker(sim):
        while True:
            yield sim.timeout(1.0)
            seen.append(sim.now)

    sim.process(ticker(sim))
    sim.run(until=3.5)
    assert seen == [1.0, 2.0, 3.0]


def test_yield_none_continues_same_time():
    sim = Simulator()
    times = []

    def proc(sim):
        times.append(sim.now)
        yield None
        times.append(sim.now)
        yield sim.timeout(1.0)
        times.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert times == [0.0, 0.0, 1.0]


def test_yield_garbage_raises():
    sim = Simulator()

    def proc(sim):
        yield "not-an-event"

    p = sim.process(proc(sim))
    with pytest.raises(SimulationError, match="non-event"):
        sim.run_until_complete(p)


def test_schedule_callback():
    sim = Simulator()
    hits = []
    sim.schedule(2.0, lambda: hits.append(sim.now))
    sim.run()
    assert hits == [2.0]


def test_deadlock_detection():
    sim = Simulator()

    def stuck(sim):
        yield sim.event()   # never triggered

    p = sim.process(stuck(sim))
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until_complete(p)


def test_event_ordering_fifo_at_same_time():
    sim = Simulator()
    order = []

    def proc(sim, tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in ("a", "b", "c"):
        sim.process(proc(sim, tag))
    sim.run()
    assert order == ["a", "b", "c"]


def test_processed_events_counter_increases():
    sim = Simulator()

    def proc(sim):
        for _ in range(5):
            yield sim.timeout(0.1)

    sim.process(proc(sim))
    sim.run()
    assert sim.processed_events >= 5


# -- events that already fired -------------------------------------------


def _yields(*targets):
    """A process body that yields ``targets`` in order."""
    for target in targets:
        yield target


@pytest.mark.parametrize("coalesce", [True, False])
def test_waiting_on_finished_process_resumes(coalesce):
    sim = Simulator(coalesce=coalesce)

    def child(sim):
        yield sim.timeout(1.0)
        return "done"

    c = sim.process(child(sim))

    def late(sim):
        yield sim.timeout(2.0)   # c fired and was dispatched at t=1
        value = yield c
        return (value, sim.now)

    p = sim.process(late(sim))
    assert sim.run_until_complete(p) == ("done", 2.0)


def test_waiting_on_dispatched_failed_event_raises_inside():
    sim = Simulator()
    ev = sim.event()
    ev.fail(ValueError("early"))
    sim.run()   # dispatches ev with no waiters
    caught = []

    def late(sim):
        try:
            yield ev
        except ValueError as exc:
            caught.append((str(exc), sim.now))

    sim.run_until_complete(sim.process(late(sim)))
    assert caught == [("early", 0.0)]


def test_all_of_over_finished_processes():
    sim = Simulator()
    procs = [sim.process(_yields(None)) for _ in range(3)]
    sim.run()

    def join(sim):
        values = yield all_of(sim, procs)
        return values

    assert sim.run_until_complete(sim.process(join(sim))) == [None] * 3


# -- plain-delay yields and the delay check --------------------------------


def _delay_workload(sim, log, plain):
    resource = Resource(sim, capacity=2, name="r")

    def wait(delay):
        return delay if plain else sim.timeout(delay)

    def proc(pid):
        for k in range(6):
            yield wait((pid + k) % 3 * 1e-6)
            if not resource.try_acquire():
                yield resource.acquire()
            try:
                yield wait(2e-6)
            finally:
                resource.release()
            log.append((pid, k, sim.now))
            if k % 2:
                yield None

    return all_of(sim, [sim.process(proc(i)) for i in range(5)])


@pytest.mark.parametrize("coalesce", [True, False])
def test_plain_delay_takes_the_timeout_slot(coalesce):
    runs = {}
    for plain in (False, True):
        sim = Simulator(coalesce=coalesce)
        log = []
        _delay_workload(sim, log, plain)
        sim.run()
        runs[plain] = (log, sim.now, sim.processed_events)
    assert runs[True] == runs[False]


@pytest.mark.parametrize(
    "delay",
    [1, 1.0, np.float64(1.0), np.float32(1.0), np.int64(1), np.int32(1)],
)
def test_numeric_delays_accepted(delay):
    sim = Simulator()

    def proc(sim):
        yield delay
        yield sim.timeout(delay)

    sim.run_until_complete(sim.process(proc(sim)))
    assert sim.now == 2.0


BAD_DELAYS = [
    -1.0, -1, float("nan"), np.float64("nan"), np.float64(-1e-9),
    True, False, np.bool_(True),
]


@pytest.mark.parametrize("delay", BAD_DELAYS)
def test_bad_yielded_delay_names_the_process(delay):
    sim = Simulator()

    def proc(sim):
        yield delay

    p = sim.process(proc(sim), name="sleeper")
    with pytest.raises(SimulationError, match="'sleeper'"):
        sim.run_until_complete(p)
    assert sim.now == 0.0


@pytest.mark.parametrize("delay", BAD_DELAYS)
def test_bad_timeout_delay_rejected(delay):
    sim = Simulator()
    with pytest.raises(SimulationError, match="timeout"):
        sim.timeout(delay)


# -- the inlined run loop ----------------------------------------------------


@pytest.mark.parametrize("coalesce", [True, False])
def test_run_until_triggered_matches_step_loop(coalesce):
    results = []
    for inlined in (True, False):
        sim = Simulator(coalesce=coalesce)
        log = []
        done = _delay_workload(sim, log, plain=True)
        first = sim.process(_yields(3e-6, None))
        checkpoints = []
        for target in (first, done):
            if inlined:
                assert sim.run_until_triggered(target) is True
            else:
                while not target.triggered:
                    assert sim.step()
            checkpoints.append((sim.now, sim.processed_events))
        results.append((log, checkpoints))
    assert results[0] == results[1]


@pytest.mark.parametrize("coalesce", [True, False])
def test_run_until_triggered_false_when_queue_drains(coalesce):
    sim = Simulator(coalesce=coalesce)
    sim.process(_yields(1.0, 2.0))
    never = sim.event()
    assert sim.run_until_triggered(never) is False
    assert sim.now == 3.0
    # start, two delay resumes, and the finished process firing
    assert sim.processed_events == 4


def test_drive_reports_a_drained_queue_as_deadlock():
    sim = Simulator()

    def stuck(sim):
        yield sim.event()   # never triggered

    with pytest.raises(ConfigError, match="probe deadlocked"):
        drive(sim, [sim.process(stuck(sim))], what="probe")
