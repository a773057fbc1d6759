"""Pinned ISP flash contention trace.

Two concurrent ``isp_flash_read`` batches and one host read sequence
share one SSD's flash lanes, with ECC re-reads injected.  The final
clock, the dispatched-hop count, the ``flash`` resource accounting and
the page counter are pinned in ``tests/data/isp_contention_trace.json``
so any change to how ISP lanes are scheduled must reproduce the exact
event schedule, in both the coalesced and the one-entry-per-event
queue, with and without the synchronous ``try_acquire`` grant.

``processed_events`` counts hops.  Each ``isp_flash_read`` call
dispatches one hop that starts all its lanes, one hop per served
quantum, one grant hop per quantum that waited for a flash slot, one
finish hop when its last lane runs dry, and the barrier hop that
resumes the caller; the host sequence and the process starts and
resumes make up the rest.  The two ``isp_flash_read`` calls here run
32 and 30 lanes but dispatch only one start and one finish hop each.

Regenerate the pin (only when the schedule is meant to change) with
``PYTHONPATH=src python tests/test_isp_contention_trace.py``.
"""

import json
import os

import pytest

from repro.faults.inject import FaultInjector
from repro.faults.plan import FaultPlan
from repro.pipeline.backends.base import drive
from repro.sim.engine import Simulator
from repro.sim.resources import Resource
from repro.storage.ssd import SSDevice

PIN = os.path.join(os.path.dirname(__file__), "data",
                   "isp_contention_trace.json")


def _scenario(coalesce):
    sim = Simulator(coalesce=coalesce)
    faults = FaultInjector(FaultPlan(seed=7, flash_read_error_rate=0.02))
    state = SSDevice().attach(sim, faults=faults)

    def isp(n_pages, start_s):
        yield sim.timeout(start_s)
        yield from state.isp_flash_read(n_pages)

    procs = [
        sim.process(isp(300, 0.0), name="isp-a"),
        sim.process(isp(90, 20e-6), name="isp-b"),
        sim.process(
            state.host_read_sequence(40, 16384.0, buffered_frac=0.25),
            name="host",
        ),
    ]
    return sim, state, faults, procs


def contention_trace(coalesce, fast_path):
    saved = Resource.fast_path
    Resource.fast_path = fast_path
    try:
        sim, state, faults, procs = _scenario(coalesce)
        drive(sim, procs, what="isp trace")
    finally:
        Resource.fast_path = saved
    state.flash.utilization()  # fold the open interval into busy area
    return {
        "now": sim.now,
        "processed_events": sim.processed_events,
        "flash_busy_area": state.flash._busy_area,
        "flash_acquisitions": state.flash._acquisitions,
        "flash_wait_total": state.flash._wait_time_total,
        "flash_pages_read": state.flash_pages_read,
        "flash_rereads": faults.stats().get("fault_flash_rereads", 0),
    }


def _capture():
    return {
        ("fast_path" if fast else "reference"): contention_trace(True, fast)
        for fast in (True, False)
    }


@pytest.mark.parametrize("coalesce", [True, False])
@pytest.mark.parametrize("fast_path", [True, False])
def test_isp_contention_trace_matches_pin(coalesce, fast_path):
    with open(PIN) as fh:
        pinned = json.load(fh)
    key = "fast_path" if fast_path else "reference"
    assert contention_trace(coalesce, fast_path) == pinned[key]


def test_isp_trace_exercises_contention_and_faults():
    with open(PIN) as fh:
        pinned = json.load(fh)["fast_path"]
    assert pinned["flash_rereads"] > 0
    assert pinned["flash_wait_total"] > 0.0
    assert pinned["flash_pages_read"] >= 390


def test_failing_isp_lane_surfaces_from_drive():
    sim, state, _faults, procs = _scenario(coalesce=True)

    def broken_release():
        raise RuntimeError("flash lane fault")

    state.flash.release = broken_release
    with pytest.raises(RuntimeError, match="flash lane fault"):
        drive(sim, procs, what="isp trace")


if __name__ == "__main__":
    with open(PIN, "w") as fh:
        json.dump(_capture(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {PIN}")
