"""The serving loop: queue in, process-pool workers out, store between.

:class:`CampaignService` owns a service *state directory*::

    state/
      journal.jsonl   # job lifecycle journal (JobQueue)
      spool/          # cross-process submission inbox (Spool)
      store/          # content-addressed result records (ResultStore)
      graphs/         # pool workers' CSR cache (GraphStore)

and drives a single-threaded orchestration loop over three moves --
ingest the spool, dispatch queued jobs, harvest finished futures --
with the invariants the campaign-as-a-service design asks for:

* **event-driven**: an in-process :meth:`~CampaignService.submit` and
  every settling worker future wake the loop at once, so no job waits
  out a poll; ``poll_interval_s`` only paces the scans for
  cross-process spool files and ``job_timeout_s`` overruns;

* **served, not re-run**: a job whose key is already in the store
  completes immediately (``source="store"``); a job whose key is
  currently being computed attaches to that computation
  (``source="coalesced"``) so one key simulates at most once no matter
  how many submitters race;
* **one answer path**: every computed job is one ``work_fn`` call on
  one worker, analytic or not; analytic grids are batched only by
  :meth:`repro.api.session.Session.sweep`, whose records equal the
  per-spec ones;
* **scales with cores**: real work runs on a ``ProcessPoolExecutor``
  (``executor="process"``); ``"thread"`` and ``"inline"`` executors
  exist for tests, benchmarks, and single-core fallbacks;
* **failure isolation**: a unit that raises marks only its job (and
  attached followers) failed, mirroring
  :class:`~repro.api.campaign.Campaign`; a *worker crash*
  (``BrokenProcessPool``) rebuilds the pool and retries the job up to
  ``max_retries`` times; a per-job timeout fails jobs that outrun
  ``job_timeout_s``;
* **graceful drain**: interrupts cancel not-yet-started futures
  (:func:`repro.api.campaign.cancel_pending`, shared with the campaign
  executor's shutdown path) and journal in-flight jobs back to
  ``queued``, so a restarted service resumes exactly where it stopped.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import (
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.api.spec import RunSpec
from repro.api.validation import check_count, check_positive_real
from repro.errors import ConfigError
from repro.service.jobs import Job, JobQueue, Spool
from repro.service.store import ResultStore, run_key
from repro.service.worker import evaluate_and_store, init_worker

__all__ = ["CampaignService", "ServiceReport", "EXECUTORS"]

EXECUTORS = ("process", "thread", "inline")


class _InlineFuture:
    """A completed-at-submit future (``executor="inline"``)."""

    def __init__(self, fn, *args) -> None:
        self._exc: Optional[BaseException] = None
        self._value = None
        try:
            self._value = fn(*args)
        except BaseException as exc:  # mirrored to result()
            self._exc = exc

    def done(self) -> bool:
        return True

    def add_done_callback(self, fn) -> None:
        fn(self)

    def cancel(self) -> bool:
        return False

    def result(self):
        if self._exc is not None:
            raise self._exc
        return self._value


def _percentiles(samples: List[float]) -> Dict[str, float]:
    if not samples:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0, "mean": 0.0, "max": 0.0}
    arr = np.asarray(samples, dtype=float)
    p50, p95, p99 = np.percentile(arr, [50.0, 95.0, 99.0])
    return {
        "p50": float(p50),
        "p95": float(p95),
        "p99": float(p99),
        "mean": float(arr.mean()),
        "max": float(arr.max()),
    }


@dataclass
class ServiceReport:
    """One drain's worth of serving metrics (the CLI/experiment output)."""

    workers: int
    executor: str
    wall_s: float
    counts: Dict[str, int] = field(default_factory=dict)
    #: jobs by result source: computed / store / coalesced
    sources: Dict[str, int] = field(default_factory=dict)
    latency: Dict[str, float] = field(default_factory=dict)
    queue_depth_mean: float = 0.0
    queue_depth_max: int = 0
    worker_utilization: float = 0.0
    store: Dict[str, int] = field(default_factory=dict)

    @property
    def jobs_completed(self) -> int:
        return self.counts.get("done", 0)

    @property
    def served_fraction(self) -> float:
        """Fraction of completed jobs answered without simulating."""
        done = self.jobs_completed
        if not done:
            return 0.0
        served = self.sources.get("store", 0) + self.sources.get(
            "coalesced", 0
        )
        return served / done

    @property
    def throughput_jobs_per_s(self) -> float:
        return self.jobs_completed / self.wall_s if self.wall_s > 0 else 0.0

    def to_json_obj(self) -> dict:
        return {
            "workers": self.workers,
            "executor": self.executor,
            "wall_s": self.wall_s,
            "counts": dict(self.counts),
            "sources": dict(self.sources),
            "served_fraction": self.served_fraction,
            "throughput_jobs_per_s": self.throughput_jobs_per_s,
            "latency_s": dict(self.latency),
            "queue_depth_mean": self.queue_depth_mean,
            "queue_depth_max": self.queue_depth_max,
            "worker_utilization": self.worker_utilization,
            "store": dict(self.store),
        }

    def summary(self) -> str:
        lines = [
            f"jobs: {self.jobs_completed} done, "
            f"{self.counts.get('failed', 0)} failed, "
            f"{self.counts.get('cancelled', 0)} cancelled "
            f"({self.wall_s:.2f}s wall, "
            f"{self.throughput_jobs_per_s:.1f} jobs/s)",
            f"sources: {self.sources.get('computed', 0)} computed, "
            f"{self.sources.get('store', 0)} store, "
            f"{self.sources.get('coalesced', 0)} coalesced "
            f"({self.served_fraction:.0%} served)",
            f"latency: p50 {self.latency.get('p50', 0.0) * 1e3:.1f} ms, "
            f"p95 {self.latency.get('p95', 0.0) * 1e3:.1f} ms, "
            f"p99 {self.latency.get('p99', 0.0) * 1e3:.1f} ms",
            f"queue depth: mean {self.queue_depth_mean:.1f}, "
            f"max {self.queue_depth_max}",
            f"workers: {self.workers} ({self.executor}), "
            f"{self.worker_utilization:.0%} busy",
        ]
        return "\n".join(lines)


class CampaignService:
    """Long-running spec-serving loop over one state directory.

    ``work_fn(spec_dict, store_root) -> record`` is the pool-side unit
    (default :func:`~repro.service.worker.evaluate_and_store`); tests
    inject sleeping/crashing functions through it.  It must be a
    module-level function when ``executor="process"``.

    ``poll_interval_s`` is the period at which an idle loop scans the
    spool for cross-process submissions and checks ``job_timeout_s``;
    it is not a wait every job pays, because in-process submissions
    and finished workers wake the loop directly.
    """

    def __init__(
        self,
        state_dir: str,
        workers: int = 2,
        executor: str = "process",
        job_timeout_s: Optional[float] = None,
        max_retries: int = 1,
        poll_interval_s: float = 0.02,
        work_fn: Optional[Callable[[dict, str], dict]] = None,
    ) -> None:
        if executor not in EXECUTORS:
            raise ConfigError(
                f"executor must be one of {EXECUTORS}, got {executor!r}"
            )
        self.workers = check_count("workers", workers)
        self.executor = executor
        self.job_timeout_s = (
            None if job_timeout_s is None
            else check_positive_real("job_timeout_s", job_timeout_s)
        )
        self.max_retries = check_count("max_retries", max_retries, 0)
        self.poll_interval_s = check_positive_real(
            "poll_interval_s", poll_interval_s
        )
        self.work_fn = work_fn or evaluate_and_store
        self.state_dir = state_dir
        os.makedirs(state_dir, exist_ok=True)
        self.queue = JobQueue(os.path.join(state_dir, "journal.jsonl"))
        self.spool = Spool(os.path.join(state_dir, "spool"))
        self.store = ResultStore(
            os.path.join(state_dir, "store"),
            graph_root=os.path.join(state_dir, "graphs"),
        )
        self._pool = None
        #: set by submit() and by every settling future; the loop
        #: sleeps on it between cycles instead of a fixed poll
        self._wake = threading.Event()
        #: key -> (primary job, future, monotonic dispatch time)
        self._running: Dict[str, Tuple[Job, Future, float]] = {}
        #: key -> jobs waiting on the in-flight primary
        self._followers: Dict[str, List[Job]] = {}
        self._latencies: List[float] = []
        self._depth_samples: List[int] = []
        self._busy_s = 0.0
        #: jobs settled (done/failed) by THIS instance -- reports
        #: describe the current drain, not the journal's full history
        self._settled: List[Job] = []

    # -- submission --------------------------------------------------------

    def submit(self, spec, priority: int = 0) -> Job:
        """Validate, key, journal, and enqueue one spec (in-process)."""
        if isinstance(spec, dict):
            spec = RunSpec.from_dict(spec)
        if not isinstance(spec, RunSpec):
            raise ConfigError(
                f"submit needs a RunSpec or mapping, "
                f"got {type(spec).__name__}"
            )
        key = run_key(spec)
        job = self.queue.submit(key, spec.to_dict(), priority)
        self._wake.set()
        return job

    # -- executors ---------------------------------------------------------

    def _ensure_pool(self) -> None:
        if self._pool is not None or self.executor == "inline":
            return
        if self.executor == "process":
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=init_worker,
                initargs=(
                    multiprocessing.Value("i", 0), self.store.graph_root,
                ),
            )
        else:
            self._pool = ThreadPoolExecutor(max_workers=self.workers)

    def _submit_work(self, job: Job) -> Future:
        return self._start(self.work_fn, job.spec, self.store.root)

    def _start(self, fn, *args) -> Future:
        """Run ``fn(*args)`` on the executor; its settling wakes the loop."""
        if self.executor == "inline":
            future = _InlineFuture(fn, *args)
        else:
            self._ensure_pool()
            future = self._pool.submit(fn, *args)
        future.add_done_callback(lambda _: self._wake.set())
        return future

    # -- the three moves ---------------------------------------------------

    def _ingest_spool(self) -> bool:
        """Pull cross-process submissions into the journaled queue."""
        progressed = False
        for entry in self.spool.drain():
            progressed = True
            try:
                spec = RunSpec.from_dict(entry.spec)
                key = run_key(spec)
            except ConfigError as exc:
                # isolate malformed submissions: journal + fail, keep
                # serving everyone else
                bad = self.queue.submit("run:invalid", entry.spec,
                                        entry.priority)
                self.queue.mark_failed(bad, f"invalid spec: {exc}")
                self._settle(bad)
                continue
            self.queue.submit(key, spec.to_dict(), entry.priority)
        return progressed

    def _dispatch(self) -> bool:
        """Start queued jobs: serve from store, coalesce, or simulate."""
        progressed = False
        while len(self._running) < self.workers:
            job = self.queue.next_job()
            if job is None:
                break
            progressed = True
            if job.key in self._running:
                self._followers.setdefault(job.key, []).append(job)
                continue
            if self.store.get(job.key) is not None:
                self._finish(job, "store")
                continue
            self._running[job.key] = (
                job, self._submit_work(job), time.monotonic()
            )
        return progressed

    def _harvest(self) -> bool:
        """Collect finished/overdue futures; settle followers."""
        progressed = False
        now = time.monotonic()
        for key in list(self._running):
            if key not in self._running:
                continue  # a crash handler cleared the table mid-scan
            job, future, t0 = self._running[key]
            if future.done():
                progressed = True
                del self._running[key]
                self._busy_s += time.monotonic() - t0
                try:
                    record = future.result()
                except BrokenProcessPool:
                    self._handle_crash(job)
                except Exception as exc:
                    self._fail(job, f"unit: {exc!r}")
                else:
                    if job.key not in self.store:
                        # thread/inline workers share our store dir and
                        # have already written; a custom work_fn may not
                        self.store.put(record)
                    self._finish(job, "computed")
            elif (
                self.job_timeout_s is not None
                and now - t0 > self.job_timeout_s
            ):
                progressed = True
                del self._running[key]
                self._busy_s += time.monotonic() - t0
                future.cancel()
                self._fail(
                    job,
                    f"timeout: exceeded {self.job_timeout_s:g}s "
                    f"(attempt {job.attempts})",
                )
        return progressed

    def _finish(self, job: Job, source: str) -> None:
        self.queue.mark_done(job, source)
        self._settle(job)
        for follower in self._followers.pop(job.key, []):
            self.queue.mark_done(follower, "coalesced")
            self._settle(follower)

    def _fail(self, job: Job, error: str) -> None:
        self.queue.mark_failed(job, error)
        self._settle(job)
        for follower in self._followers.pop(job.key, []):
            self.queue.mark_failed(follower, error)
            self._settle(follower)

    def _handle_crash(self, job: Job) -> None:
        """Worker process died: rebuild the pool, retry within bounds."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        # every other in-flight future of the broken pool is lost too
        orphans = [j for j, _, _ in self._running.values()]
        self._running.clear()
        for victim in [job] + orphans:
            if victim.attempts > self.max_retries:
                self._fail(
                    victim,
                    f"worker crashed (attempt {victim.attempts}, "
                    f"retries exhausted)",
                )
            else:
                self.queue.requeue(victim, "crash")

    def _settle(self, job: Job) -> None:
        self._settled.append(job)
        if job.latency_s is not None:
            self._latencies.append(job.latency_s)

    # -- the serving loop --------------------------------------------------

    def idle(self) -> bool:
        return (
            not self._running
            and self.queue.depth() == 0
            and self.spool.pending() == 0
        )

    def drain(
        self,
        stop_when_idle: bool = True,
        max_wall_s: Optional[float] = None,
    ) -> ServiceReport:
        """Serve until idle (or ``max_wall_s``); returns the report.

        ``stop_when_idle=False`` keeps serving forever (the ``repro
        serve`` daemon mode); interrupt to stop.  Interrupts and fatal
        errors drain gracefully: not-yet-started futures are cancelled
        and in-flight jobs journaled back to ``queued``.
        """
        return self._serve(stop_when_idle, max_wall_s)

    def _serve(
        self,
        stop_when_idle: bool,
        max_wall_s: Optional[float],
        between: Optional[Callable[[], None]] = None,
    ) -> ServiceReport:
        """The serving loop behind :meth:`drain` and
        :func:`~repro.service.chaos.chaos_drain`.

        ``between()`` runs each cycle after dispatch and before harvest
        (where a chaos drill kills a worker).  A cycle that moved
        nothing sleeps on ``_wake``, which the next submission or
        settling future sets; the ``poll_interval_s`` timeout only
        bounds the spool and job-timeout scans.  The event is cleared
        before a cycle looks at any state, so a wake-up that lands
        during the cycle is never lost.
        """
        self._ensure_pool()
        start = time.monotonic()
        try:
            while True:
                self._wake.clear()
                progressed = self._ingest_spool()
                progressed |= self._dispatch()
                if between is not None:
                    between()
                progressed |= self._harvest()
                self._depth_samples.append(
                    self.queue.depth() + len(self._running)
                )
                if stop_when_idle and self.idle():
                    break
                if (
                    max_wall_s is not None
                    and time.monotonic() - start > max_wall_s
                ):
                    break
                if not progressed:
                    self._wake.wait(self.poll_interval_s)
        except BaseException:
            self.shutdown()
            raise
        return self.report(time.monotonic() - start)

    def shutdown(self) -> Tuple[str, ...]:
        """Graceful stop: cancel pending work, requeue in-flight jobs.

        Shares :func:`~repro.api.campaign.cancel_pending` with the
        campaign executor's interrupt path.  Queued jobs stay queued in
        the journal, in-flight jobs are journaled back to ``queued``,
        so a restarted service resumes the same work; followers simply
        re-coalesce on the next drain.  Returns the requeued job ids.
        """
        from repro.api.campaign import cancel_pending

        cancel_pending([f for _, f, _ in self._running.values()])
        requeued = []
        for key in list(self._running):
            job, _, _ = self._running.pop(key)
            self.queue.requeue(job, "shutdown")
            requeued.append(job.job_id)
        for key in list(self._followers):
            for follower in self._followers.pop(key):
                self.queue.requeue(follower, "shutdown")
                requeued.append(follower.job_id)
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        return tuple(requeued)

    def close(self) -> None:
        """Release the pool and journal handles (normal exit)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self.queue.close()

    def __enter__(self) -> "CampaignService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- reporting ---------------------------------------------------------

    def report(self, wall_s: Optional[float] = None) -> ServiceReport:
        """Metrics over the jobs *this instance* settled.

        A recovered service's journal also holds earlier sessions'
        history; that full view lives in :meth:`status`, while reports
        describe the drain that just ran (the CI smoke asserts on the
        second pass's served fraction, so mixing passes would be
        wrong).
        """
        counts = {state: 0 for state in ("done", "failed", "cancelled")}
        sources: Dict[str, int] = {}
        for job in self._settled:
            if job.state in counts:
                counts[job.state] += 1
            if job.state == "done" and job.source:
                sources[job.source] = sources.get(job.source, 0) + 1
        counts["queued"] = self.queue.depth()
        counts["running"] = len(self._running)
        wall = wall_s if wall_s is not None else 0.0
        depth = self._depth_samples
        utilization = (
            self._busy_s / (self.workers * wall) if wall > 0 else 0.0
        )
        return ServiceReport(
            workers=self.workers,
            executor=self.executor,
            wall_s=wall,
            counts=counts,
            sources=sources,
            latency=_percentiles(self._latencies),
            queue_depth_mean=(
                float(np.mean(depth)) if depth else 0.0
            ),
            queue_depth_max=int(max(depth)) if depth else 0,
            worker_utilization=min(1.0, utilization),
            store=self.store.stats(),
        )

    def status(self) -> dict:
        """Point-in-time state (the ``repro status`` CLI)."""
        return {
            "state_dir": self.state_dir,
            "counts": self.queue.counts(),
            "queue_depth": self.queue.depth(),
            "spool_pending": self.spool.pending(),
            "recovered_running": list(self.queue.recovered_running),
            "store": self.store.stats(),
            "jobs": [job.summary() for job in self.queue.jobs()],
        }
