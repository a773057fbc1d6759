"""Tests for the batched analytic evaluator: cost-group hashing, the
vectorized combine against its scalar reference, and the session-level
entry point behind ``Session.sweep``."""

import dataclasses

import numpy as np
import pytest

from repro.api import RunSpec, Session, SystemSpec
from repro.api.batcheval import FREE_FIELDS, cost_group_key, evaluate_sessions
from repro.errors import ConfigError
from repro.perf.reference import combine
from repro.pipeline.backends.analytic import combine_batch


def _spec(**overrides):
    system = overrides.pop("system", None)
    base = dict(
        dataset="protein-pi",
        edge_budget=1.5e5,
        batch_size=16,
        n_workloads=3,
        n_batches=4,
        n_workers=2,
        mode="analytic",
        system=system or SystemSpec(design="smartsage-sw"),
    )
    base.update(overrides)
    return RunSpec(**base)


# -- cost groups -----------------------------------------------------------


def test_cost_group_key_ignores_exactly_the_free_fields():
    base = _spec()
    key = cost_group_key(base)
    # every free field the combine folds (or ignores) keeps the group
    assert cost_group_key(base.replace(n_batches=16)) == key
    assert cost_group_key(base.replace(n_workers=7)) == key
    assert cost_group_key(base.replace(queue_depth=9)) == key
    assert cost_group_key(base.replace(prefetch_depth=5)) == key
    # anything that reshapes the warmed system / workloads splits it
    assert cost_group_key(base.replace(batch_size=32)) != key
    assert cost_group_key(base.replace(edge_budget=2e5)) != key
    assert cost_group_key(base.replace(seed=1)) != key
    assert cost_group_key(
        base.replace(system=SystemSpec(design="ssd-mmap"))
    ) != key
    assert cost_group_key(
        base.replace(
            system=dataclasses.replace(
                base.system, host_cache_frac=0.3
            )
        )
    ) != key


def test_free_fields_is_a_subset_of_runspec_fields():
    names = {f.name for f in dataclasses.fields(RunSpec)}
    assert FREE_FIELDS <= names


# -- vectorized combine vs scalar reference --------------------------------


def test_combine_batch_bit_identical_to_scalar_combine():
    rng = np.random.default_rng(0)
    for design in ("smartsage-sw", "ssd-mmap", "dram"):
        samp, feat, trans, train = (
            float(x) for x in rng.uniform(1e-4, 5e-2, size=4)
        )
        n_batches = [1, 2, 8, 100, 7, 64]
        n_workers = [1, 2, 3, 16, 5, 2]
        batch = combine_batch(
            design, samp, feat, trans, train, n_batches, n_workers
        )
        for nb, nw, result in zip(n_batches, n_workers, batch):
            ref = combine(design, samp, feat, trans, train, nb, nw)
            assert result == ref  # full dataclass equality, bit exact
            assert isinstance(result.elapsed_s, float)
            assert isinstance(result.n_batches, int)


# -- session-level evaluation ----------------------------------------------


def test_evaluate_sessions_matches_per_point_run():
    specs = [
        _spec(n_workers=w, n_batches=nb)
        for w, nb in [(1, 4), (2, 4), (3, 8), (8, 2)]
    ]
    batched = evaluate_sessions([Session(s) for s in specs])
    scalar = [Session(s).run() for s in specs]
    assert batched == scalar


def test_evaluate_sessions_rejects_non_analytic():
    with pytest.raises(ConfigError, match="analytic"):
        evaluate_sessions([Session(_spec(mode="event"))])


def test_evaluate_sessions_interleaved_groups_keep_input_order():
    # two cost groups interleaved: results must come back in input
    # order, each bit-identical to its own scalar run
    a = dataclasses.replace(
        SystemSpec(design="smartsage-sw"), host_cache_frac=0.1
    )
    b = dataclasses.replace(
        SystemSpec(design="smartsage-sw"), host_cache_frac=0.3
    )
    specs = [
        _spec(system=a, n_workers=1),
        _spec(system=b, n_workers=1),
        _spec(system=a, n_workers=4),
        _spec(system=b, n_workers=4),
    ]
    batched = evaluate_sessions([Session(s) for s in specs])
    scalar = [Session(s).run() for s in specs]
    assert batched == scalar
