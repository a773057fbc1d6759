"""The picklable work unit a pool worker executes.

The campaign executor's units are closures over live objects
(``partial``\\ s capturing configs, engines, datasets), which a thread
pool can run but a ``ProcessPoolExecutor`` cannot ship.  The service
refactors the spec-shaped unit down to plain data: a worker receives
the spec *dict*, rebuilds the :class:`~repro.api.session.Session` on
its side of the process boundary, runs the pipeline, and returns the
serialized result dict -- everything crossing the boundary is JSON-
shaped and therefore picklable by construction.

Every served result record is built here:
:func:`evaluate_and_store` serves the service's scalar jobs and a
store-backed :class:`~repro.api.campaign.Campaign`'s misses, and
:func:`evaluate_batch_and_store` serves the service's batched analytic
jobs with the same record bytes.

Simulation is deterministic (campaign records are byte-identical
across processes and job counts), so *where* a spec is evaluated --
serving process, pool worker, another host -- cannot change the
record that lands in the result store.
"""

from __future__ import annotations

from typing import Optional

from repro.affinity import place_on_cpu

__all__ = [
    "place_worker",
    "evaluate_spec_dict",
    "evaluate_and_store",
    "evaluate_batch_and_store",
]


def place_worker(ordinals) -> None:
    """Process-pool initializer: start each worker on its own CPU.

    A forked worker starts on its parent's CPU and, on a kernel that
    does not balance load, never leaves it (see :mod:`repro.affinity`).
    ``ordinals`` is a shared counter: worker ``i`` moves to the ``i``-th
    allowed CPU, round robin, and then gets its whole allowed set back.
    """
    with ordinals.get_lock():
        ordinal = ordinals.value
        ordinals.value += 1
    place_on_cpu(ordinal)


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


def evaluate_batch_and_store(
    spec_dicts: list, store_root: Optional[str] = None
) -> dict:
    """Batched face of :func:`evaluate_and_store` for analytic specs.

    One pool submission answers the whole batch through
    :func:`repro.api.batcheval.evaluate_specs` -- phase costs computed
    once per cost group, results combined in one vectorized pass.
    Returns ``{run_key: record}``; each record is byte-identical to
    what the scalar :func:`evaluate_and_store` call would have written
    (same spec dict verbatim, same result, same canonical JSON).
    """
    from repro.api.batcheval import evaluate_specs
    from repro.api.spec import RunSpec
    from repro.service.store import (
        ResultStore,
        make_record,
        result_to_dict,
        run_key,
    )

    specs = [RunSpec.from_dict(d) for d in spec_dicts]
    results = evaluate_specs(specs)
    store = ResultStore(store_root) if store_root is not None else None
    out = {}
    for spec_dict, spec, result in zip(spec_dicts, specs, results):
        key = run_key(spec)
        record = make_record(key, spec_dict, result_to_dict(result))
        if store is not None:
            store.put(record)
        out[key] = record
    return out
