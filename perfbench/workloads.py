"""The three benchmark workloads: cold-spec, warm-des and service-traffic.

Each workload is one user of the simulator, and its unit of work (an
*op*) is what that user waits for:

``cold-spec``
    One spec taken to one stored result from nothing: graph generation,
    CSR build, workload sampling, system build and warm-up, the DES,
    serialization and the store write.  Every op uses a fresh dataset
    seed, so no artifact of an earlier op can be reused; graph
    construction dominates.  Closed loop, one client.
``warm-des``
    A design sweep on an already materialized session: one op runs the
    five event-driven backends (event, sharded, gids, async,
    distributed) plus an analytic ``n_workers`` grid, which
    :meth:`Session.sweep` answers through the batched evaluator, over a
    shared dataset and workload pool, and stores each result.  Dataset
    work happens only in set-up, so the DES and system build dominate.
    Closed loop, one client.
``service-traffic``
    The repository's own service traffic model
    (:mod:`repro.service.traffic`): open-loop Poisson arrivals at
    :attr:`ServiceTraffic.RATE` jobs/s with Zipf-skewed popularity and
    random priorities over :func:`spec_pool`'s mixed pool (event,
    analytic, sharded, async, gids and distributed specs), replayed into
    a :class:`CampaignService` with two process-pool workers while it
    drains.  An op is one job, timed from when it was due to arrive to
    its completion, so queue wait and generator lateness count.  Each
    round starts from an empty store, so a spec's first arrival
    simulates and its repeats are answered by coalescing or from the
    store.

Every workload checks its results: records must round-trip through the
store, repeated evaluation of one spec must give byte-identical
records, and service records must equal an in-process evaluation.

A run alternates set-up and measurement :data:`ROUNDS` times, so that
set-ups meet the same host conditions as the ops spread over the run.
The closed-loop workloads report times in reference seconds (see
``hostspeed.py``): the host's slowdown is measured before each op and
set-up and once after the last, and each wall time is divided by the
mean of the slowdowns measured on either side of it.  The raw wall
figures are kept too, for comparison.  ``service-traffic`` reports wall
time (see :class:`ServiceTraffic`).
"""

from __future__ import annotations

import os
import sys
import threading
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.api import RunSpec, Session, SystemSpec
from repro.api.cache import ContentCache, activated
from repro.service import store as rstore
from repro.service.server import CampaignService
from repro.service.traffic import generate_traffic, replay, spec_pool

import hostspeed

#: set-up/measurement rounds per run; the median set-up is reported.
#: Each service-traffic round starts from an empty store, and which
#: specs a round draws, and so simulates, is random: ten short rounds
#: average that out where five long ones left its seed-to-seed spread
#: about twice as wide.
ROUNDS = 10

#: (mode, design, system overrides, run overrides) of the event-driven
#: backends a sweep covers
_BACKENDS = (
    ("event", "smartsage-hwsw", {}, {}),
    ("sharded", "smartsage-sharded", {"n_shards": 2}, {}),
    ("gids", "gids-cached", {}, {}),
    ("async", "smartsage-hwsw", {}, {"prefetch_depth": 3}),
    ("distributed", "smartsage-sharded", {"n_shards": 2, "n_hosts": 2}, {}),
)

_ANALYTIC = ("analytic", "smartsage-sw", {}, {})
#: ``n_workers`` values of warm-des's analytic sweep
_ANALYTIC_GRID = tuple(range(1, 9))


#: a wall time in seconds and the index of the calibration before it,
#: or None where no calibration applies
Timed = Tuple[float, Optional[int]]


@dataclass
class Outcome:
    """What one workload measured."""

    #: host slowdowns, in the order they were measured
    slowdowns: List[float] = field(default_factory=list)
    setups: List[Timed] = field(default_factory=list)
    #: op latencies
    ops: List[Timed] = field(default_factory=list)
    #: measured phases, the throughput denominator
    busy: List[Timed] = field(default_factory=list)
    #: open-loop arrivals: seconds from due time to submission
    late: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def calibrate(self) -> int:
        """Measure the host's slowdown; returns its index."""
        self.slowdowns.append(hostspeed.slowdown())
        return len(self.slowdowns) - 1

    def reference_s(self, samples: List[Timed]) -> List[float]:
        """``samples`` in reference seconds; needs a calibration after
        the last of them."""
        slow = self.slowdowns
        return [wall if i is None else wall * 2 / (slow[i] + slow[i + 1])
                for wall, i in samples]

    def fail(self, message: str, ops: int = 1) -> None:
        self.failed += ops
        self.problems.append(message)


class Context:
    """Run-wide state shared by a workload's phases."""

    def __init__(self, seed: int, seconds: float, work_dir: str,
                 tracer=None) -> None:
        self.seconds = seconds
        self.work_dir = work_dir
        self.tracer = tracer
        self.rng = np.random.default_rng(seed)
        self._dirs = 0

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def fresh_dir(self, prefix: str) -> str:
        self._dirs += 1
        path = os.path.join(self.work_dir, f"{prefix}-{self._dirs}")
        os.makedirs(path)
        return path


def _spec(dataset: str, edge_budget: float, seed: int, backend,
          n_workers: int = 2) -> RunSpec:
    mode, design, sys_over, run_over = backend
    return RunSpec(
        dataset=dataset,
        edge_budget=edge_budget,
        batch_size=32,
        n_workloads=16,
        n_batches=16,
        n_workers=n_workers,
        mode=mode,
        seed=seed,
        system=SystemSpec(design=design, **sys_over),
        **run_over,
    ).validate()


def _put(result, spec_dict: dict, key: str,
         store: rstore.ResultStore) -> dict:
    record = rstore.make_record(key, spec_dict, rstore.result_to_dict(result))
    store.put(record)
    return record


def _evaluate(session: Session, spec_dict: dict, key: str,
              store: rstore.ResultStore) -> dict:
    """Run one session to a stored record (the service worker's unit)."""
    return _put(session.run(), spec_dict, key, store)


def _check_record(record: dict, spec: RunSpec,
                  store: rstore.ResultStore) -> Optional[str]:
    result = record["result"]
    if result["n_batches"] != spec.n_batches or not result["elapsed_s"] > 0:
        return f"{record['key']}: implausible result {result}"
    stored = store.get(record["key"])
    if stored is None or rstore.record_bytes(stored) != rstore.record_bytes(
        record
    ):
        return f"{record['key']}: store round trip changed the record"
    return None


class Workload:
    """One round is :meth:`setup` then :meth:`measure`."""

    #: whether times are corrected for host speed: only where the timed
    #: work runs in this process, right after a calibration, does the
    #: calibration kernel see the slowdown that work suffers
    corrected = True

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx

    def setup(self) -> None:
        """Build what the ops need; earlier rounds' state is dropped."""
        raise NotImplementedError

    def measure(self, out: Outcome, seconds: float) -> None:
        """Run :meth:`op` in a closed loop for ``seconds``."""
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            before = out.attempted
            try:
                self.op(out)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                out.fail(f"op {out.attempted} raised",
                         ops=max(1, out.attempted - before))

    def op(self, out: Outcome) -> None:
        raise NotImplementedError

    def verify(self, out: Outcome) -> None:
        """Check the last round's results after measurement."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what :meth:`setup` started."""


class ColdSpec(Workload):
    """``cold-spec``: one spec to one stored record, nothing reused."""

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.base = int(ctx.rng.integers(1, 1 << 20)) * 1000
        self.next = 0
        self.store: Optional[rstore.ResultStore] = None
        self.done: List[RunSpec] = []

    def spec(self, seed: int) -> RunSpec:
        return _spec("reddit", 4e5, seed, _BACKENDS[0])

    def run_one(self, spec: RunSpec) -> dict:
        with self.ctx.span("op"):
            return _evaluate(
                Session(spec), spec.to_dict(), rstore.run_key(spec),
                self.store,
            )

    def setup(self) -> None:
        self.done = []
        self.store = rstore.ResultStore(self.ctx.fresh_dir("store"))
        self.run_one(self.spec(self.base - 1))

    def op(self, out: Outcome) -> None:
        out.attempted += 1
        spec = self.spec(self.base + self.next)
        self.next += 1
        cal = out.calibrate()
        t0 = time.perf_counter()
        record = self.run_one(spec)
        timed = (time.perf_counter() - t0, cal)
        out.ops.append(timed)
        out.busy.append(timed)
        problem = _check_record(record, spec, self.store)
        if problem:
            out.fail(problem)
        self.done.append(spec)

    def verify(self, out: Outcome) -> None:
        """Re-evaluate the first and last specs from scratch."""
        for spec in {id(s): s for s in self.done[:1] + self.done[-1:]}.values():
            again = _evaluate(Session(spec), spec.to_dict(),
                              rstore.run_key(spec),
                              rstore.ResultStore(self.ctx.fresh_dir("verify")))
            if self.store.get(again["key"]) != again:
                out.problems.append(f"{again['key']}: not deterministic")


class WarmDes(Workload):
    """``warm-des``: five-backend plus analytic-grid sweeps over one warm
    session set."""

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        seed = int(ctx.rng.integers(0, 1 << 20))
        self.specs = [_spec("amazon", 2e5, seed, b) for b in _BACKENDS]
        self.grid = [_spec("amazon", 2e5, seed, _ANALYTIC, n)
                     for n in _ANALYTIC_GRID]
        self.keys = [rstore.run_key(s) for s in self.specs + self.grid]
        self.dicts = [s.to_dict() for s in self.specs + self.grid]
        self.sessions: List[Session] = []
        self.analytic: Optional[Session] = None
        self.reference: List[dict] = []
        self.store: Optional[rstore.ResultStore] = None

    def _records(self) -> List[dict]:
        results = [sess.run() for sess in self.sessions]
        grid = self.analytic.sweep("n_workers", _ANALYTIC_GRID)
        results += [grid[n] for n in _ANALYTIC_GRID]
        return [_put(r, d, k, self.store)
                for r, d, k in zip(results, self.dicts, self.keys)]

    def setup(self) -> None:
        self.store = rstore.ResultStore(self.ctx.fresh_dir("store"))
        # one content cache shares the dataset and workload pool across
        # the sweep's sessions, as a campaign does
        with activated(ContentCache()):
            self.sessions = [Session(s) for s in self.specs]
            self.analytic = Session(self.grid[0])
            self.reference = self._records()

    def op(self, out: Outcome) -> None:
        out.attempted += 1
        cal = out.calibrate()
        t0 = time.perf_counter()
        with self.ctx.span("op"):
            records = self._records()
        timed = (time.perf_counter() - t0, cal)
        out.ops.append(timed)
        out.busy.append(timed)
        for record, ref in zip(records, self.reference):
            if rstore.record_bytes(record) != rstore.record_bytes(ref):
                out.fail(f"{record['key']}: warm rerun changed the record")
                return

    def verify(self, out: Outcome) -> None:
        for spec, record in zip(self.specs + self.grid, self.reference):
            problem = _check_record(record, spec, self.store)
            if problem:
                out.problems.append(problem)
        # the batched sweep must answer as the scalar path does
        spec, record = self.grid[-1], self.reference[-1]
        scalar = _evaluate(Session(spec), spec.to_dict(), record["key"],
                           rstore.ResultStore(self.ctx.fresh_dir("verify")))
        if rstore.record_bytes(scalar) != rstore.record_bytes(record):
            out.problems.append(f"{record['key']}: batched sweep differs "
                                f"from a scalar run")


class ServiceTraffic(Workload):
    """``service-traffic``: the repository's traffic model replayed into a
    process-pool service.

    Its times stay in wall time: set-up and jobs run in worker processes
    and overlap one another over rounds of seconds, so no calibration
    brackets them.  On a 2-vCPU host, correcting them made their spread
    over ten seeds wider in one trial and narrower in another.
    """

    corrected = False
    WORKERS = 2
    #: offered load, jobs/s: about a quarter of what the two workers
    #: serve on this mix, so a job waits for its own simulation and
    #: light queueing, never a growing backlog.  Near a third of the
    #: jobs simulate, so the median lies among store hits and the p90
    #: among simulations; more jobs per round shrink that share and
    #: move the p90 toward the store hits (at 16 jobs/s in 6-second
    #: rounds its spread over five seeds nearly doubled).
    RATE = 12.0
    #: each of spec_pool's seven templates on each of its three datasets
    POOL = 21

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.seed = int(ctx.rng.integers(0, 1 << 20))
        # the service's spec catalogue is fixed; the seed draws the
        # arrivals, the popularity and the priorities
        self.pool = spec_pool(self.POOL)
        # starts the pool's workers in set-up; a larger graph than the
        # pool's, so no traffic key is stored before the traffic starts
        self.warmup = spec_pool(self.WORKERS, edge_budget=2e5)
        self.rounds = 0
        self.service: Optional[CampaignService] = None
        self.opened = 0.0
        #: specs the last round simulated, by mode
        self.computed: dict = {}
        #: jobs by result source over the run
        self.sources: dict = {}

    def _busy_s(self) -> float:
        """Worker-seconds the pool has worked since set-up began (the
        report's utilization is that over workers x wall)."""
        wall = time.monotonic() - self.opened
        report = self.service.report(wall)
        return report.worker_utilization * self.WORKERS * wall

    def setup(self) -> None:
        self.computed = {}
        self.opened = time.monotonic()
        self.service = CampaignService(
            self.ctx.fresh_dir("service"),
            workers=self.WORKERS,
            executor="process",
        )
        for spec in self.warmup:
            self.service.submit(spec)
        self.service.drain()

    def measure(self, out: Outcome, seconds: float) -> None:
        """One open-loop trace of ``seconds``, drained as it arrives."""
        trace = generate_traffic(int(2 * self.RATE * seconds) + 1,
                                 self.RATE, self.pool,
                                 seed=self.seed + self.rounds)
        trace = [item for item in trace if item.arrival_s < seconds]
        self.rounds += 1
        out.attempted += len(trace)
        service = self.service
        jobs: list = []
        busy_before = self._busy_s()
        start = time.time()
        arrivals = threading.Thread(
            target=lambda: jobs.extend(replay(service, trace))
        )
        arrivals.start()
        try:
            # the serving daemon's loop: poll, sleeping when idle
            while arrivals.is_alive() or not service.idle():
                service.drain(stop_when_idle=False, max_wall_s=0.25)
        finally:
            arrivals.join()
        out.busy.append(((self._busy_s() - busy_before) / self.WORKERS,
                         None))
        if len(jobs) != len(trace):
            out.fail(f"round {self.rounds}: {len(jobs)} of {len(trace)} "
                     f"arrivals submitted", ops=len(trace) - len(jobs))
        for item, job in zip(trace, jobs):
            due = start + item.arrival_s
            if self.ctx.tracer:
                self.ctx.tracer.add("arrival_late", due, job.submitted_at)
                if job.started_at is not None:
                    self.ctx.tracer.add("queue_wait", job.submitted_at,
                                        job.started_at)
            out.late.append(job.submitted_at - due)
            record = service.store.get(job.key)
            if job.state != "done" or record is None \
                    or record["spec"] != job.spec:
                out.fail(f"{job.job_id} ended {job.state}: {job.error}")
                continue
            out.ops.append((job.finished_at - due, None))
            self.sources[job.source] = self.sources.get(job.source, 0) + 1
            if job.source in ("computed", "batch"):
                self.computed.setdefault(item.spec.mode, item.spec)

    def verify(self, out: Outcome) -> None:
        """Served records must equal an in-process evaluation."""
        print(f"perfbench: service job sources {self.sources}",
              file=sys.stderr)
        for spec in self.computed.values():
            key = rstore.run_key(spec)
            local = _evaluate(Session(spec), spec.to_dict(), key,
                              rstore.ResultStore(self.ctx.fresh_dir("verify")))
            if self.service.store.get(key) != local:
                out.problems.append(f"{key}: service record differs")

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None


WORKLOADS = {
    "cold-spec": ColdSpec,
    "warm-des": WarmDes,
    "service-traffic": ServiceTraffic,
}


def run_workload(name: str, ctx: Context, trace_scope) -> Outcome:
    """Set up, measure and verify one workload.

    ``trace_scope`` wraps set-up and measurement (span hooks when
    tracing); verification runs outside it so that its evaluations do
    not count as measured work.
    """
    out = Outcome()
    workload = WORKLOADS[name](ctx)
    try:
        with trace_scope:
            for _ in range(ROUNDS):
                workload.close()
                cal = out.calibrate() if workload.corrected else None
                t0 = time.perf_counter()
                with ctx.span("setup"):
                    workload.setup()
                out.setups.append((time.perf_counter() - t0, cal))
                workload.measure(out, ctx.seconds / ROUNDS)
            if workload.corrected:
                out.calibrate()
        workload.verify(out)
    finally:
        workload.close()
    return out
