"""Built-in benchmarks over the simulation substrate's hot paths.

Micro benchmarks pit each vectorized kernel against the scalar
reference implementation it replaced (the reference stays in the tree
precisely so this comparison -- and the parity tests backing it --
never rot).  References that production code no longer selects live in
:mod:`repro.perf.reference`, which no other production module imports;
``cache-tiered`` has none and times the lookup alone.  The two macro
benchmarks time one GraphSAGE mini-batch (``sampler-batch``) and the
fault hooks' tax on a clean pipeline run (``fault-overhead``).
Whole-spec wall-clock time, layer by layer, is the repository
benchmark's job (``perfbench/``), not this registry's.

Problem sizes follow ``ctx.scale(full, smoke)``: full sizes target
roughly a second per benchmark on a laptop-class core; smoke sizes keep
``repro bench --smoke`` fast enough for CI and the test suite.
"""

from __future__ import annotations

import numpy as np

from repro.perf.registry import register_benchmark

__all__ = []  # benchmarks are reached through the registry


def _zipf_keys(rng, n: int, domain: int, a: float = 1.2) -> np.ndarray:
    """Hub-heavy key stream: what page/node streams look like here."""
    return (rng.zipf(a, size=n) % domain).astype(np.int64)


@register_benchmark(
    "llc-trace",
    tags=("micro", "memory"),
    description="set-associative LLC trace replay (vectorized vs scalar)",
)
def _bench_llc_trace(ctx):
    from repro.config import LLCParams
    from repro.memory.llc import CacheSim

    n = ctx.scale(300_000, 20_000)
    rng = ctx.rng()
    # Uniform byte addresses over a many-set working set: the shape of
    # the paper's low-locality sampling stream (Fig 5).
    trace = rng.integers(0, 1 << 31, size=n)
    params = LLCParams(capacity_bytes=8 << 20, ways=16, line_bytes=64)

    elapsed = ctx.time(
        lambda: CacheSim(params).run_trace(trace, method="vectorized")
    )
    reference = ctx.time(
        lambda: CacheSim(params).run_trace_scalar(trace)
    )
    sim = CacheSim(params)
    stats = sim.run_trace(trace)
    return ctx.result(
        ops=n,
        elapsed_s=elapsed,
        reference_s=reference,
        miss_rate=stats.miss_rate,
    )


@register_benchmark(
    "cache-tiered",
    tags=("micro", "cache", "gids"),
    description="tiered feature-cache lookup, per policy",
)
def _bench_cache_tiered(ctx):
    from repro.cache import FeatureCacheTier, TieredFeatureCache

    page = 512
    n_batches = ctx.scale(200, 60)
    batch = 1024
    rng = ctx.rng()
    domain = 16 * 1024
    # hub-heavy stream whose hot set fits the near tier: batches are
    # mostly resident, so ``static`` answers from its frozen lookup
    batches = [
        _zipf_keys(rng, batch, domain=domain, a=1.8)
        for _ in range(n_batches)
    ]
    priority = np.arange(domain, dtype=np.int64)

    def stack(policy):
        return TieredFeatureCache([
            FeatureCacheTier("hbm", 1024 * page, page, policy=policy,
                             priority_pages=priority),
            FeatureCacheTier("peer", 2048 * page, page, policy=policy,
                             priority_pages=priority[1024:]),
            FeatureCacheTier("uva", 8192 * page, page, policy=policy,
                             priority_pages=priority[1024 + 2048:]),
        ])

    policies = ("lru", "clock", "static")

    def lookups():
        for policy in policies:
            cache = stack(policy)
            with ctx.stage(policy):
                for keys in batches:
                    cache.lookup(keys)

    return ctx.result(
        ops=len(policies) * n_batches * batch,
        elapsed_s=ctx.time(lookups),
    )


@register_benchmark(
    "flash-plan",
    tags=("micro", "storage"),
    description="flash controller extent planning (batched vs per-extent)",
)
def _bench_flash_plan(ctx):
    """Batched extent planning against the per-extent loop.

    One batched pass over the smoke sizes takes ~0.3 ms, short enough
    for a single scheduler hiccup to decide a repeat, so each timed
    repeat plans the same extents ``laps`` times (~20 ms at smoke).
    The per-extent reference runs once per repeat.
    """
    from repro.storage.controller import FlashController
    from repro.storage.nand import FlashArray

    n = ctx.scale(40_000, 4_000)
    laps = ctx.scale(8, 64)
    rng = ctx.rng()
    sizes = rng.integers(0, 128 * 1024, size=n).astype(np.int64)
    lbas = rng.integers(0, 1 << 24, size=n).astype(np.int64)
    counts = rng.integers(0, 32, size=n).astype(np.int64)

    def batched():
        ctl = FlashController(FlashArray())
        for _ in range(laps):
            with ctx.stage("plan_extents"):
                ctl.plan_extents(sizes)
            with ctx.stage("lpns_for_extents"):
                ctl.lpns_for_extents(lbas, counts)

    def scalar():
        ctl = FlashController(FlashArray())
        for s in sizes.tolist():
            ctl.plan_extent(s)
        for lba, cnt in zip(lbas.tolist(), counts.tolist()):
            ctl.lpns_for_extent(lba, cnt)

    elapsed = ctx.time(batched)
    reference = ctx.time(scalar)
    return ctx.result(
        ops=2 * n * laps, elapsed_s=elapsed, reference_s=reference * laps
    )


@register_benchmark(
    "ftl-translate",
    tags=("micro", "storage"),
    description="FTL translation with rewrites (vectorized vs scalar remap)",
)
def _bench_ftl_translate(ctx):
    from repro.perf.reference import apply_remap_scalar
    from repro.storage.ftl import FlashTranslationLayer

    n = ctx.scale(300_000, 20_000)
    total_pages = 1 << 20
    rng = ctx.rng()
    ftl = FlashTranslationLayer(total_pages, seed=1)
    for lpn in rng.integers(0, total_pages, size=64).tolist():
        ftl.rewrite(lpn)
    lpns = rng.integers(0, total_pages, size=n).astype(np.int64)

    def reference():
        raw = ftl.permute(lpns)
        apply_remap_scalar(ftl, lpns, raw)

    elapsed = ctx.time(lambda: ftl.translate(lpns))
    reference_s = ctx.time(reference)
    return ctx.result(ops=n, elapsed_s=elapsed, reference_s=reference_s)


@register_benchmark(
    "frontier-dedup",
    tags=("micro", "gnn"),
    description="sampling frontier dedup (direct-address table vs np.unique)",
)
def _bench_frontier_dedup(ctx):
    from repro.gnn.sampler import FrontierDedup

    n = ctx.scale(400_000, 20_000)
    domain = max(1024, n // 8)
    rng = ctx.rng()
    samples = rng.integers(0, domain, size=n).astype(np.int64)
    table = FrontierDedup(domain)
    table(samples[:16])  # allocate outside the timed region

    elapsed = ctx.time(lambda: table(samples))
    reference = ctx.time(lambda: np.unique(samples, return_inverse=True))
    return ctx.result(
        ops=n,
        elapsed_s=elapsed,
        reference_s=reference,
        distinct_frac=np.unique(samples).size / n,
    )


@register_benchmark(
    "sampler-batch",
    tags=("macro", "gnn"),
    description="multi-hop neighbor sampling (table vs sorted dedup kernel)",
)
def _bench_sampler_batch(ctx):
    from repro.gnn.sampler import NeighborSampler
    from repro.graph.csr import CSRGraph

    n_nodes = ctx.scale(50_000, 5_000)
    n_edges = 16 * n_nodes
    rng = ctx.rng()
    graph = CSRGraph.from_edges(
        rng.integers(0, n_nodes, size=n_edges),
        rng.integers(0, n_nodes, size=n_edges),
        num_nodes=n_nodes,
    )
    seeds = rng.choice(n_nodes, size=ctx.scale(512, 96), replace=False)
    fanouts = (15, 10)
    iters = 5

    def run(dedup: str):
        sampler = NeighborSampler(graph, fanouts=fanouts, dedup=dedup)
        sampled = 0
        gen = np.random.default_rng(ctx.seed)
        for _ in range(iters):
            batch = sampler.sample_batch(seeds, gen)
            sampled += sum(batch.hop_samples)
        return sampled

    ops = run("table")  # warm + count
    elapsed = ctx.time(lambda: run("table"))
    reference = ctx.time(lambda: run("sorted"))
    return ctx.result(ops=ops, elapsed_s=elapsed, reference_s=reference)


@register_benchmark(
    "sampler-noreplace",
    tags=("micro", "graph"),
    description="without-replacement sampling (batched key top-k vs per-row)",
)
def _bench_sampler_noreplace(ctx):
    from repro.graph.csr import CSRGraph

    n_nodes = ctx.scale(20_000, 2_000)
    n_edges = 24 * n_nodes
    rng = ctx.rng()
    graph = CSRGraph.from_edges(
        rng.integers(0, n_nodes, size=n_edges),
        rng.integers(0, n_nodes, size=n_edges),
        num_nodes=n_nodes,
    )
    targets = rng.integers(0, n_nodes, size=ctx.scale(4_000, 400))
    fanout = 10

    def run(method: str):
        gen = np.random.default_rng(ctx.seed)
        return graph.sample_neighbors(
            targets, fanout, gen, replace=False, method=method
        )

    samples, _ = run("batched")
    elapsed = ctx.time(lambda: run("batched"))
    reference = ctx.time(lambda: run("scalar"))
    return ctx.result(
        ops=int(samples.size), elapsed_s=elapsed, reference_s=reference
    )


@register_benchmark(
    "csr-build",
    tags=("micro", "graph"),
    description="CSR build from narrow IDs (packed-key sort vs stable argsort)",
)
def _bench_csr_build(ctx):
    from repro.graph.csr import CSRGraph

    # reddit at a 4e5-edge budget: 277 nodes, IDs as rmat_graph draws them
    n_nodes = 277
    n_edges = ctx.scale(4_000_000, 400_276)
    rng = ctx.rng()
    src = rng.integers(0, n_nodes, size=n_edges).astype(np.uint16)
    dst = rng.integers(0, n_nodes, size=n_edges).astype(np.uint16)

    def argsort_build():
        order = np.argsort(src, kind="stable")
        indptr = np.zeros(n_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n_nodes), out=indptr[1:])
        return CSRGraph(indptr, dst[order].astype(np.int32))

    elapsed = ctx.time(
        lambda: CSRGraph.from_edges(src, dst, num_nodes=n_nodes)
    )
    reference = ctx.time(argsort_build)
    return ctx.result(ops=n_edges, elapsed_s=elapsed, reference_s=reference)


@register_benchmark(
    "mmap-faultaround",
    tags=("micro", "host"),
    description="fault-around window planning (ceil-div kernel vs loop)",
)
def _bench_mmap_faultaround(ctx):
    from repro.host.mmap_io import fault_around_windows
    from repro.perf.reference import fault_around_windows_scalar

    n = ctx.scale(400_000, 20_000)
    rng = ctx.rng()
    misses = rng.integers(0, 24, size=n).astype(np.int64)
    window = 4

    elapsed = ctx.time(lambda: fault_around_windows(misses, window))
    reference = ctx.time(
        lambda: fault_around_windows_scalar(misses, window)
    )
    return ctx.result(ops=n, elapsed_s=elapsed, reference_s=reference)


@register_benchmark(
    "event-engine",
    tags=("micro", "sim"),
    description="discrete-event loop (coalesced buckets vs per-event heap)",
)
def _bench_event_engine(ctx):
    from repro.perf.reference import ReferenceSimulator
    from repro.sim.engine import Simulator
    from repro.sim.resources import Resource

    n_procs = ctx.scale(64, 16)
    steps = ctx.scale(400, 60)

    def run(sim_cls) -> int:
        sim = sim_cls()
        resource = Resource(sim, capacity=4, name="bench")
        rng = np.random.default_rng(ctx.seed)
        delays = rng.integers(0, 3, size=(n_procs, steps)) * 1e-6

        def proc(pid: int):
            for k in range(steps):
                yield sim.timeout(float(delays[pid, k]))
                yield resource.acquire()
                try:
                    yield sim.timeout(1e-6)
                finally:
                    resource.release()

        for pid in range(n_procs):
            sim.process(proc(pid), name=f"p{pid}")
        sim.run()
        return sim.processed_events

    ops = run(Simulator)
    elapsed = ctx.time(lambda: run(Simulator))
    reference = ctx.time(lambda: run(ReferenceSimulator))
    return ctx.result(ops=ops, elapsed_s=elapsed, reference_s=reference)


@register_benchmark(
    "resource-churn",
    tags=("micro", "sim"),
    description="uncontended Resource grant/release churn (synchronous fast path vs per-event grants)",
)
def _bench_resource_churn(ctx):
    from contextlib import nullcontext

    from repro.perf.reference import event_grants
    from repro.sim.engine import Simulator
    from repro.sim.resources import Resource

    n_procs = ctx.scale(8, 4)
    steps = ctx.scale(20_000, 2_000)

    def run(grants) -> int:
        sim = Simulator()
        # capacity == n_procs: every cycle is an uncontended grant, the
        # exact shape of the hot flash-channel / embedded-core loops
        resource = Resource(sim, capacity=n_procs, name="bench")

        def proc():
            for _ in range(steps):
                if not resource.try_acquire():
                    yield resource.acquire()
                try:
                    yield sim.timeout(1e-6)
                finally:
                    resource.release()

        with grants():
            for pid in range(n_procs):
                sim.process(proc(), name=f"p{pid}")
            sim.run()
        return n_procs * steps

    ops = run(nullcontext)
    elapsed = ctx.time(lambda: run(nullcontext))
    reference = ctx.time(lambda: run(event_grants))
    return ctx.result(ops=ops, elapsed_s=elapsed, reference_s=reference)


@register_benchmark(
    "fault-overhead",
    tags=("macro", "e2e", "faults"),
    description="zero-fault pipeline cost with the injection hooks in place (vs no plan at all)",
)
def _bench_fault_overhead(ctx):
    """The fault layer's tax on clean runs: ideally indistinguishable.

    Times the same event-mode pipeline twice -- ``faults`` unset vs. an
    attached all-zero-rate :class:`~repro.faults.FaultPlan` -- and
    asserts the two produce byte-identical result dicts (the parity
    contract).  ``reference_s`` is the no-plan run, so the regression
    gate bounds the hook overhead itself; ``overhead_fraction`` reports
    it directly.  One run takes only a few milliseconds, so each timed
    repeat runs the pipeline ``laps`` times (~20 ms or more): a repeat
    that short is at the mercy of a single scheduler hiccup.
    """
    import dataclasses
    import time

    from repro.api import RunSpec, Session, SystemSpec
    from repro.faults import FaultPlan
    from repro.service.store import result_to_dict

    spec = RunSpec(
        dataset="reddit",
        edge_budget=ctx.scale(4e5, 1.2e5),
        batch_size=ctx.scale(64, 32),
        n_workloads=4,
        n_batches=ctx.scale(24, 6),
        n_workers=2,
        mode="event",
        system=SystemSpec(design="smartsage-hwsw"),
    )
    zero_spec = spec.replace(
        system=dataclasses.replace(spec.system, faults=FaultPlan())
    )
    with ctx.stage("build"):
        base = Session.from_spec(spec)
        base.workloads  # materialize dataset + workload pool once

    def run(s):
        return Session(
            s, dataset=base.dataset, workloads=base.workloads
        ).run()

    clean, zeroed = run(spec), run(zero_spec)  # warm + parity check
    if result_to_dict(clean) != result_to_dict(zeroed):
        raise AssertionError(
            "zero-rate fault plan changed the pipeline result"
        )
    laps = ctx.scale(3, 10)

    def timed(s):
        for _ in range(laps):
            run(s)

    elapsed = ctx.time(lambda: timed(zero_spec))
    reference = ctx.time(lambda: timed(spec))
    return ctx.result(
        ops=laps * spec.n_batches,
        elapsed_s=elapsed,
        reference_s=reference,
        overhead_fraction=(
            elapsed / reference - 1.0 if reference > 0 else 0.0
        ),
    )
