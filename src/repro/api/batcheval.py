"""Batched evaluation of analytic-mode run specs.

The analytic backend factors into an expensive half (mean per-batch
phase costs over the warmed system -- dataset materialization, cache
warm-up, per-workload cost accounting) and a trivially cheap
closed-form half (fold four floats with ``n_batches``/``n_workers``).
A sweep or campaign over pipeline knobs re-pays the expensive half for
every point even though it is identical across the grid.

This module evaluates N analytic specs at once: specs are grouped by
:func:`cost_group_key` (everything that can change the warmed system,
the GPU model, or the workload pool), the phase costs are computed
*once* per group, and the whole group's results come out of one
vectorized :func:`~repro.pipeline.backends.analytic.combine_batch`
pass.  Results are bit-identical to per-point
:meth:`~repro.api.session.Session.run` -- the scalar backend and the
batched path share the same :func:`phase_costs` accumulation and the
same IEEE-double combine arithmetic -- which the parity tests in
``tests/test_perf_parity.py`` lock down, ``record_bytes`` included.

Entry point: :func:`evaluate_sessions`, N prepared :class:`Session`
objects.  Its one production caller is :meth:`Session.sweep`, which
takes it exactly when every point of a grid is analytic; the service
answers each analytic job on its own, with the same record bytes.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.api.cache import spec_key
from repro.api.spec import RunSpec
from repro.api.validation import PIPELINE_COUNTS
from repro.errors import ConfigError
from repro.pipeline.backends.analytic import combine_batch, phase_costs
from repro.pipeline.backends.base import PipelineResult

__all__ = ["FREE_FIELDS", "cost_group_key", "evaluate_sessions"]

#: RunSpec fields the analytic model either folds in closed form
#: (``n_batches``/``n_workers``) or ignores outright (the mode and the
#: other pipeline counts) -- the axes a cost
#: group is vectorized over.  Everything else (dataset, workload shape,
#: warm-up, the whole SystemSpec) changes the warmed system or the
#: workload pool and therefore splits the group.
FREE_FIELDS = frozenset({"mode", *PIPELINE_COUNTS})


def cost_group_key(spec: RunSpec) -> str:
    """Hash of every field that can change the group's phase costs.

    Shallow field walk instead of ``spec.to_dict()``:
    ``dataclasses.asdict`` deep-copies the hardware override dicts,
    which at 100 sweep points costs more than the evaluation itself.
    ``canonical_json`` (inside :func:`spec_key`) only reads the values,
    so sharing references is safe.
    """
    import dataclasses

    from repro.api.spec import SystemSpec

    fields = {
        f.name: getattr(spec, f.name)
        for f in dataclasses.fields(RunSpec)
        if f.name not in FREE_FIELDS and f.name != "system"
    }
    fields["system"] = {
        f.name: getattr(spec.system, f.name)
        for f in dataclasses.fields(SystemSpec)
    }
    return spec_key("batcheval-group", **fields)


def _group_costs(session) -> Tuple[str, float, float, float, float]:
    """(design, samp, feat, trans, train) for one cost group.

    Reproduces :meth:`Session.run` for an analytic spec exactly: build
    a fresh system, warm its caches on ``workloads[:warmup]``, measure
    the remaining pool in order.
    """
    warm = session.spec.warmup_batches
    system = session.build()
    for w in session.workloads[:warm]:
        system.sampling_engine.batch_cost(w)
    measured = session.workloads[warm:]
    if not measured:
        raise ConfigError("need at least one workload")
    samp, feat, trans, train = phase_costs(system, session.gpu, measured)
    return system.design, samp, feat, trans, train


def evaluate_sessions(sessions: Sequence) -> List[PipelineResult]:
    """Evaluate N analytic-mode sessions, grouped by cost key.

    Returns results in input order.  Raises :class:`ConfigError` if any
    session is not analytic-mode -- callers decide fallback policy
    *before* asking for a batch.
    """
    for s in sessions:
        if s.spec.mode != "analytic":
            raise ConfigError(
                f"batched evaluation needs mode='analytic' specs, "
                f"got mode={s.spec.mode!r}"
            )
    groups: Dict[str, List[int]] = {}
    for i, s in enumerate(sessions):
        groups.setdefault(cost_group_key(s.spec), []).append(i)
    results: List[PipelineResult] = [None] * len(sessions)  # type: ignore
    for members in groups.values():
        first = sessions[members[0]]
        design, samp, feat, trans, train = _group_costs(first)
        batch = combine_batch(
            design,
            samp,
            feat,
            trans,
            train,
            [sessions[i].spec.n_batches for i in members],
            [sessions[i].spec.n_workers for i in members],
        )
        for i, result in zip(members, batch):
            results[i] = result
    return results

