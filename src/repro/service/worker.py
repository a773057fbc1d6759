"""The picklable work unit a pool worker executes.

The campaign executor's units are closures over live objects
(``partial``\\ s capturing configs, engines, datasets), which a thread
pool can run but a ``ProcessPoolExecutor`` cannot ship.  The service
refactors the spec-shaped unit down to plain data: a worker receives
the spec *dict*, rebuilds the :class:`~repro.api.session.Session` on
its side of the process boundary, runs the pipeline, and returns the
serialized result dict -- everything crossing the boundary is JSON-
shaped and therefore picklable by construction.

Every served result record is built here: :func:`evaluate_and_store`
answers each of the service's computed jobs, analytic or not, and a
store-backed :class:`~repro.api.campaign.Campaign`'s misses.

Simulation is deterministic (campaign records are byte-identical
across processes and job counts), so *where* a spec is evaluated --
serving process, pool worker, another host -- cannot change the
record that lands in the result store.  Nor can what a pool worker
remembers: :func:`init_worker` gives each worker one bounded
:class:`~repro.api.cache.ContentCache` for its life, backed by the
state directory's graph store, so a job reuses the graph that an
earlier job of the same state directory generated.
"""

from __future__ import annotations

from typing import Optional

from repro.affinity import place_on_cpu

__all__ = [
    "WORKER_CACHE_BYTES",
    "init_worker",
    "place_worker",
    "evaluate_spec_dict",
    "evaluate_and_store",
]


#: array bytes a pool worker's content cache keeps (graphs and workload
#: pools); a service-sized graph is a few MB
WORKER_CACHE_BYTES = 256 << 20


def place_worker(ordinals) -> None:
    """Start this process on its own CPU (first step of :func:`init_worker`).

    A forked worker starts on its parent's CPU and, on a kernel that
    does not balance load, never leaves it (see :mod:`repro.affinity`).
    ``ordinals`` is a shared counter: worker ``i`` moves to the ``i``-th
    allowed CPU, round robin, and then gets its whole allowed set back.
    """
    with ordinals.get_lock():
        ordinal = ordinals.value
        ordinals.value += 1
    place_on_cpu(ordinal)


def init_worker(ordinals, graph_root: str) -> None:
    """Process-pool initializer: place the worker, then warm its memory.

    After :func:`place_worker`, activates one
    :class:`~repro.api.cache.ContentCache` for the worker's life,
    bounded by :data:`WORKER_CACHE_BYTES`, with ``graph_root`` (the
    state directory's ``graphs/``) as its graph store.  A job whose
    dataset an earlier job in this worker built takes it from memory;
    one whose dataset any earlier job of the state directory built maps
    it from the store.
    """
    from repro.api.cache import ContentCache, activate
    from repro.graph.store import GraphStore

    place_worker(ordinals)
    activate(
        ContentCache(
            max_bytes=WORKER_CACHE_BYTES, graph_store=GraphStore(graph_root)
        )
    )


def evaluate_spec_dict(spec_dict: dict) -> dict:
    """Evaluate one spec dict; returns the result dict (both picklable).

    This is the function the process pool imports on its side; it must
    stay module-level (picklable by reference) and must not capture
    service state.
    """
    from repro.api.session import Session
    from repro.api.spec import RunSpec
    from repro.service.store import result_to_dict

    spec = RunSpec.from_dict(spec_dict)
    return result_to_dict(Session(spec).run())


def evaluate_and_store(
    spec_dict: dict, store_root: Optional[str] = None
) -> dict:
    """Worker-side evaluate + persist: returns the full record.

    Writing from the worker (instead of shipping the result back and
    writing in the serving process) means a result survives even if the
    service dies between completion and harvest; the atomic-rename
    write makes concurrent workers of the same key safe.
    """
    from repro.api.spec import RunSpec
    from repro.service.store import ResultStore, make_record, run_key

    key = run_key(RunSpec.from_dict(spec_dict))
    record = make_record(key, spec_dict, evaluate_spec_dict(spec_dict))
    if store_root is not None:
        ResultStore(store_root).put(record)
    return record

