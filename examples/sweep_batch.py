"""Batched analytic sweeps: whole grids as one array operation.

An analytic-mode spec pays its real cost materializing the dataset,
warming the caches, and accounting per-workload phase costs; folding
``n_batches``/``n_workers`` into an end-to-end time is four floats of
closed-form arithmetic.  ``Session.sweep`` exploits that split: when
every point of a grid is analytic, the phase costs are computed once
per cost group and the whole grid comes out of one vectorized combine
-- bit-identical to the per-point loop, at a fraction of the wall
time.  This script times a 100-point worker sweep both ways and checks
the results really are equal, then shows a grid that spans cost groups.

Run:  python examples/sweep_batch.py
"""

import time

from repro import RunSpec, Session, SystemSpec


def main() -> None:
    spec = RunSpec(
        dataset="reddit",
        edge_budget=3e5,
        batch_size=48,
        n_workloads=6,
        n_batches=8,
        n_workers=2,
        mode="analytic",
        system=SystemSpec(design="smartsage-sw"),
    )
    base = Session.from_spec(spec)
    base.workloads  # materialize once, outside both timed runs
    workers = list(range(1, 101))

    def point(w):
        return Session(
            spec.replace(n_workers=w),
            dataset=base.dataset,
            workloads=base.workloads,
        )

    print("100-point n_workers sweep, analytic mode")
    t0 = time.perf_counter()
    batched = point(spec.n_workers).sweep("n_workers", workers)
    t_batch = time.perf_counter() - t0
    t0 = time.perf_counter()
    scalar = {w: point(w).run() for w in workers}  # per-point reference
    t_scalar = time.perf_counter() - t0
    assert all(batched[w] == scalar[w] for w in workers)
    print(f"   per-point loop   {t_scalar * 1e3:8.1f} ms")
    print(f"   batched          {t_batch * 1e3:8.1f} ms "
          f"({t_scalar / t_batch:.1f}x, bit-identical results)")

    knee = min(
        workers,
        key=lambda w: (round(batched[w].elapsed_s, 6), w),
    )
    print(f"   pipeline saturates around n_workers={knee} "
          f"({batched[knee].elapsed_s * 1e3:.1f} ms elapsed)")

    # an axis that changes the warmed system splits the grid into one
    # cost group per value -- still a single batched call
    fracs = [0.05, 0.15, 0.30, 0.60]
    cache = Session(
        spec, dataset=base.dataset, workloads=base.workloads
    ).sweep("host_cache_frac", fracs)
    print("\nhost_cache_frac sweep (one cost group per point)")
    for frac in fracs:
        r = cache[frac]
        print(f"   {frac:4.2f}  elapsed {r.elapsed_s * 1e3:8.1f} ms, "
              f"GPU idle {r.gpu_idle_fraction:4.0%}")


if __name__ == "__main__":
    main()
