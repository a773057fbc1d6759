"""Closed-form steady-state pipeline backend.

Producers collectively deliver one batch every ``p / W`` seconds (``p``
= mean preparation time); the GPU needs ``c`` per batch.  The pipeline
runs at the slower of the two rates, plus one pipeline-fill.  This is
the historical ``mode="analytic"`` path of ``run_pipeline``, moved onto
the backend registry unchanged.  ``mode="distributed-analytic"``, the
closed-form face of the multi-host topology
(:meth:`~repro.distributed.coordinator.DistributedCoordinator.analytic`),
registers here too.

The model factors into two halves that the batched sweep evaluator
(:mod:`repro.api.batcheval`) reuses directly:

* :func:`phase_costs` -- the expensive part: mean per-batch
  sampling/feature/transfer/train costs over the workload pool, which
  depend only on the warmed system + GPU + workloads (never on
  ``n_batches``/``n_workers``).
* :func:`combine_batch` -- the cheap closed-form part: fold those
  four costs with the pipeline knobs into one :class:`PipelineResult`
  per point, one numpy pass over arrays of ``n_batches``/``n_workers``
  (and optionally per-point costs).  A single spec is a batch of one.
  It is bit-identical to the scalar fold
  :func:`repro.perf.reference.combine` because every arithmetic step
  maps to the same IEEE-double operation (``np.maximum`` == ``max``
  for non-NaN, int64/float64 division and multiplication match Python
  scalars).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.pipeline.backends.base import ExecutionRequest, PipelineResult
from repro.pipeline.backends.registry import register_backend

__all__ = ["phase_costs", "combine_batch"]


def phase_costs(system, gpu, workloads) -> Tuple[float, float, float, float]:
    """Mean per-batch (sampling, feature, transfer, train) seconds.

    Sequential accumulation in workload order -- the exact float
    operation sequence of the historical inline loop, so results are
    bit-identical whether a spec is evaluated alone or as one point of
    a batched grid.
    """
    samp = feat = trans = train = 0.0
    for w in workloads:
        samp += system.sampling_engine.batch_cost(w).total_s
        feat += system.feature_engine.batch_cost(w).total_s
        trans += gpu.transfer_time(w)
        train += gpu.train_time(w)
    k = len(workloads)
    return samp / k, feat / k, trans / k, train / k


def combine_batch(
    design: str,
    samp,
    feat,
    trans,
    train,
    n_batches: Sequence[int],
    n_workers: Sequence[int],
) -> List[PipelineResult]:
    """The closed-form fold: N results from one numpy pass.

    ``samp``/``feat``/``trans``/``train`` are scalars (one cost group
    broadcast across every point) or per-point arrays; ``n_batches``
    and ``n_workers`` are the per-point knob arrays.  Outputs are
    converted back to Python floats so the results -- and their
    canonical-JSON store records -- are byte-identical to the scalar
    reference fold.
    """
    nb = np.asarray(n_batches, dtype=np.int64)
    nw = np.asarray(n_workers, dtype=np.int64)
    samp_a = np.broadcast_to(np.asarray(samp, dtype=np.float64), nb.shape)
    feat_a = np.broadcast_to(np.asarray(feat, dtype=np.float64), nb.shape)
    trans_a = np.broadcast_to(np.asarray(trans, dtype=np.float64), nb.shape)
    train_a = np.broadcast_to(np.asarray(train, dtype=np.float64), nb.shape)
    produce = samp_a + feat_a
    consume = trans_a + train_a
    interval = np.maximum(consume, produce / nw)
    elapsed = produce + consume + (nb - 1) * interval
    busy = nb * consume
    idle = np.maximum(0.0, 1.0 - busy / elapsed)
    return [
        PipelineResult(
            design=design,
            mode="analytic",
            n_batches=int(nb[i]),
            n_workers=int(nw[i]),
            elapsed_s=float(elapsed[i]),
            gpu_busy_s=float(busy[i]),
            gpu_idle_fraction=float(idle[i]),
            phase_means={
                "neighbor_sampling": float(samp_a[i]),
                "feature_lookup": float(feat_a[i]),
                "cpu_to_gpu": float(trans_a[i]),
                "gnn_training": float(train_a[i]),
            },
        )
        for i in range(nb.size)
    ]


@register_backend(
    "analytic",
    description="closed-form steady-state pipeline model",
)
def _plan_analytic(request: ExecutionRequest) -> PipelineResult:
    system, gpu = request.base_system(), request.gpu
    samp, feat, trans, train = phase_costs(system, gpu, request.workloads)
    return combine_batch(
        system.design, samp, feat, trans, train,
        [request.n_batches], [request.n_workers],
    )[0]


@register_backend(
    "distributed-analytic",
    description="closed-form multi-host model (same traffic accounting)",
    needs_graph=True,
)
def _plan_distributed_analytic(
    request: ExecutionRequest,
) -> PipelineResult:
    # repro.distributed (and with it repro.net) loads only for the
    # hosts axis, never on a single-device run
    from repro.distributed import DistributedCoordinator

    return DistributedCoordinator(
        request, mode="distributed-analytic"
    ).analytic()
