"""Tests for stats, timeline, and work-queue accounting."""

import pytest

from repro.sim import Histogram, Simulator, UtilizationTracker
from repro.pipeline.timeline import PhaseAccumulator, Span
from repro.pipeline.workqueue import WorkItem, WorkQueue


# -- Histogram ----------------------------------------------------------


def test_histogram_bins_and_percentiles():
    h = Histogram(base=2.0, min_value=1.0)
    for v in (1, 2, 4, 8, 16, 32, 64, 128):
        h.add(v)
    assert h.stat.count == 8
    assert h.percentile(50) <= h.percentile(99)
    lo, hi = h.bin_edges(0)
    assert (lo, hi) == (1.0, 2.0)


def test_histogram_empty_percentile():
    assert Histogram().percentile(99) == 0.0


def test_histogram_validation():
    with pytest.raises(ValueError):
        Histogram(base=1.0)


# -- UtilizationTracker -------------------------------------------------


def test_utilization_alternating():
    u = UtilizationTracker()
    u.set_busy(0.0)
    u.set_idle(3.0)
    u.set_busy(5.0)
    u.set_idle(6.0)
    assert u.busy_time() == pytest.approx(4.0)
    assert u.busy_fraction(10.0) == pytest.approx(0.4)
    assert u.idle_fraction(10.0) == pytest.approx(0.6)


def test_utilization_still_busy_at_horizon():
    u = UtilizationTracker()
    u.set_busy(2.0)
    assert u.busy_time(5.0) == pytest.approx(3.0)


# -- PhaseAccumulator --------------------------------------------------------


def test_phase_accumulator_means_and_spans():
    acc = PhaseAccumulator(keep_spans=True)
    acc.record("neighbor_sampling", 2.0, worker="p0", start_s=0.0)
    acc.record("neighbor_sampling", 4.0, worker="p1", start_s=1.0)
    acc.record("gnn_training", 1.0, worker="gpu", start_s=2.0)
    assert acc.mean("neighbor_sampling") == pytest.approx(3.0)
    assert acc.total("neighbor_sampling") == pytest.approx(6.0)
    assert acc.mean("missing") == 0.0
    assert acc.per_batch_latency() == pytest.approx(4.0)
    assert len(acc.spans) == 3
    assert acc.spans[0] == Span("neighbor_sampling", "p0", 0.0, 2.0)
    assert acc.spans[0].duration_s == pytest.approx(2.0)


def test_phase_accumulator_breakdown_object():
    acc = PhaseAccumulator()
    acc.record("a", 1.0)
    acc.record("b", 3.0)
    breakdown = acc.mean_breakdown()
    assert breakdown.total() == pytest.approx(4.0)


# -- WorkQueue ----------------------------------------------------------------


def test_workqueue_wait_accounting():
    sim = Simulator()
    queue = WorkQueue(sim, depth=1)

    def producer():
        for i in range(3):
            yield from queue.put(WorkItem(i, None))

    def consumer():
        for _ in range(3):
            item = yield from queue.get()
            yield sim.timeout(2.0)

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    # producer blocked while the queue was full
    assert queue.total_producer_wait_s > 0
    assert len(queue.consumer_waits) == 3


def test_workqueue_consumer_idle_when_empty():
    sim = Simulator()
    queue = WorkQueue(sim, depth=4)

    def late_producer():
        yield sim.timeout(5.0)
        yield from queue.put(WorkItem(0, None))

    def consumer():
        yield from queue.get()

    sim.process(consumer())
    sim.process(late_producer())
    sim.run()
    assert queue.total_consumer_wait_s == pytest.approx(5.0)
