"""Campaign-as-a-service: persistent spec serving over the simulator.

The :mod:`repro.api` layer made spec evaluation declarative (``RunSpec``
-> ``Session`` -> ``PipelineResult``) and runnable in bulk (``Campaign``);
this package turns it into a *service*: a long-running process that
accepts :class:`~repro.api.spec.RunSpec` submissions, executes them on
a **process-pool worker tier** (so CPU-bound simulations scale with
cores instead of capping at the GIL), and answers repeated submissions
from a **disk-backed, content-addressed result store** instead of
re-simulating.  The pieces:

* :mod:`repro.service.store` -- :class:`ResultStore`: the cross-process
  extension of :class:`repro.api.cache.ContentCache`.  Records are
  schema-versioned JSON, keyed by the canonical spec key, written
  atomically (temp file + rename), byte-identical across processes.
* :mod:`repro.service.jobs` -- :class:`JobQueue`: FIFO+priority queue
  of submissions with a JSON-journaled lifecycle
  (queued/running/done/failed) that survives restarts, plus the
  :class:`Spool` directory other processes submit through.
* :mod:`repro.service.worker` -- the picklable work unit
  (:func:`evaluate_spec_dict`) refactored out of the campaign
  executor's closure-based units so a ``ProcessPoolExecutor`` can run
  it; each computed job is one call of it, analytic specs included.
* :mod:`repro.service.server` -- :class:`CampaignService`: the serving
  loop wiring queue, workers, and store together, with per-job
  timeouts, bounded retry on worker crashes, failure isolation, and a
  graceful drain shared with :class:`repro.api.campaign.Campaign`.
* :mod:`repro.service.traffic` -- the open-loop traffic generator
  behind the ``service-traffic`` experiment.
* :mod:`repro.service.chaos` -- seeded chaos drills (worker kills,
  journal truncation, spool drops) plus the exactly-once store
  verifier backing the recovery tests and the CI chaos smoke.

CLI: ``python -m repro submit <state> spec.json``, ``python -m repro
serve <state> --workers N [--once]``, ``python -m repro status
<state>``.
"""

from repro.service.chaos import (
    ChaosMonkey,
    chaos_drain,
    verify_exactly_once,
)
from repro.service.jobs import Job, JobQueue, Spool
from repro.service.server import CampaignService, ServiceReport
from repro.service.store import (
    RESULT_SCHEMA,
    ResultStore,
    make_record,
    record_bytes,
    result_from_dict,
    result_to_dict,
    run_key,
)
from repro.service.traffic import (
    TrafficJob,
    generate_traffic,
    replay,
    spec_pool,
    traffic_summary,
)
from repro.service.worker import evaluate_spec_dict

__all__ = [
    "CampaignService",
    "ServiceReport",
    "Job",
    "JobQueue",
    "Spool",
    "RESULT_SCHEMA",
    "ResultStore",
    "run_key",
    "make_record",
    "record_bytes",
    "result_to_dict",
    "result_from_dict",
    "evaluate_spec_dict",
    "TrafficJob",
    "generate_traffic",
    "spec_pool",
    "replay",
    "traffic_summary",
    "ChaosMonkey",
    "chaos_drain",
    "verify_exactly_once",
]
