"""``RunSpec.rmat_draw``: the versioned RMAT draw contract as a spec field.

A spec dict without the field means ``"f64"``, the draws of every spec,
run key and stored record written before the field existed; a new
``RunSpec`` defaults to ``"u16"``.  The draw enters the run key, the
dataset cache key and the graph store key, so graphs and records of the
two contracts never mix.
"""

import json
import os

import numpy as np
import pytest

from repro.api import RunSpec, Session
from repro.api.cache import ContentCache, activated, spec_key
from repro.api.session import scaled_dataset
from repro.errors import ConfigError
from repro.graph.generators import DEFAULT_RMAT_DRAW, RMAT_DRAWS
from repro.graph.io import load_dataset_file, save_dataset
from repro.graph.store import GraphStore
from repro.service.store import run_key


def _small(**kwargs):
    return RunSpec(dataset="reddit", edge_budget=5e4, batch_size=8,
                   n_workloads=3, n_batches=2, **kwargs)


def test_default_draw_is_u16():
    assert DEFAULT_RMAT_DRAW == "u16"
    assert RMAT_DRAWS == ("f64", "u16")
    assert RunSpec().rmat_draw == "u16"


def test_absent_field_and_f64_are_one_state():
    spec = _small(rmat_draw="f64")
    blob = spec.to_dict()
    assert "rmat_draw" not in blob
    assert RunSpec.from_dict(blob) == spec
    assert RunSpec.from_dict(json.loads(json.dumps(blob))) == spec
    assert RunSpec.from_dict({"dataset": "reddit"}).rmat_draw == "f64"


def test_u16_round_trips_as_u16(tmp_path):
    spec = _small()
    blob = spec.to_dict()
    assert blob["rmat_draw"] == "u16"
    assert RunSpec.from_dict(json.loads(json.dumps(blob))) == spec
    path = tmp_path / "spec.json"
    spec.to_json(str(path))
    assert RunSpec.from_json(str(path)) == spec


def test_run_keys_of_the_two_draws_differ():
    u16, f64 = _small(), _small(rmat_draw="f64")
    assert run_key(u16) != run_key(f64)
    # an "f64" spec keeps the key it had before the field existed
    legacy = {k: v for k, v in u16.to_dict().items() if k != "rmat_draw"}
    assert run_key(f64) == spec_key("run", **legacy)
    assert run_key(f64.to_dict()) == run_key(f64)
    assert run_key(u16.to_dict()) == run_key(u16)


def test_graph_store_keys_of_the_two_draws_differ(tmp_path):
    root = tmp_path / "graphs"
    graphs = {}
    for draw in RMAT_DRAWS:
        with activated(ContentCache(graph_store=GraphStore(str(root)))):
            graphs[draw] = scaled_dataset("reddit", 5e4, rmat_draw=draw)
    assert len([n for n in os.listdir(root) if n.endswith("indptr.npy")]) == 2
    assert not np.array_equal(
        graphs["f64"].graph.indices, graphs["u16"].graph.indices
    )
    # a fresh cache maps each draw's own graph back from the store
    for draw in RMAT_DRAWS:
        with activated(ContentCache(graph_store=GraphStore(str(root)))):
            again = scaled_dataset("reddit", 5e4, rmat_draw=draw)
        assert again.rmat_draw == draw
        assert np.array_equal(again.graph.indices, graphs[draw].graph.indices)
        assert np.array_equal(again.graph.indptr, graphs[draw].graph.indptr)


def test_sessions_of_the_two_draws_share_no_artifact():
    with activated(ContentCache()) as cache:
        u16 = Session(_small())
        f64 = Session(_small(rmat_draw="f64"))
        assert u16.dataset is not f64.dataset
        assert (u16.dataset.rmat_draw, f64.dataset.rmat_draw) == (
            "u16", "f64"
        )
        assert u16.workloads[0] is not f64.workloads[0]
        assert cache.stats()["hits"] == 0
    sweep = Session(_small()).sweep("rmat_draw", ["f64", "u16"])
    assert sweep["f64"].elapsed_s != sweep["u16"].elapsed_s


@pytest.mark.parametrize(
    "bad", ["f32", "", "U16", None, 16, 1.0, True, b"u16", ["u16"],
            np.array(["u16"])],
)
def test_unknown_draw_raises_config_error(bad):
    with pytest.raises(ConfigError, match="rmat_draw"):
        _small(rmat_draw=bad).validate()
    with pytest.raises(ConfigError, match="rmat_draw"):
        run_key({"dataset": "reddit", "rmat_draw": bad})
    with pytest.raises(ConfigError, match="rmat_draw"):
        Session(_small(rmat_draw=bad))


def test_saved_dataset_keeps_its_draw(tmp_path):
    dataset = scaled_dataset("reddit", 5e4, rmat_draw="f64")
    path = save_dataset(dataset, tmp_path / "reddit")
    again = load_dataset_file(path)
    assert again.rmat_draw == "f64"
    assert np.array_equal(again.graph.indices, dataset.graph.indices)


def test_dataset_file_without_a_draw_holds_f64_graphs(tmp_path):
    dataset = scaled_dataset("reddit", 5e4, rmat_draw="f64")
    meta = {"name": "reddit", "variant": dataset.variant,
            "scale": dataset.scale, "seed": dataset.seed}
    path = tmp_path / "old.npz"
    np.savez_compressed(
        path, version=np.int64(1), indptr=dataset.graph.indptr,
        indices=dataset.graph.indices,
        meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
    )
    assert load_dataset_file(path).rmat_draw == "f64"
