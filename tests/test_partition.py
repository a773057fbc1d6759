"""Tests for graph partitioning (repro.graph.partition)."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat_graph, uniform_graph
from repro.graph.partition import (
    PARTITION_METHODS,
    partition_graph,
)


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(2000, 16000, np.random.default_rng(7))


@pytest.mark.parametrize("method", PARTITION_METHODS)
@pytest.mark.parametrize("n_shards", [1, 2, 3, 4, 8])
def test_every_node_in_exactly_one_shard(graph, method, n_shards):
    part = partition_graph(graph, n_shards, method=method)
    assert part.owner.shape == (graph.num_nodes,)
    assert part.owner.min() >= 0
    assert part.owner.max() < n_shards
    # shard_nodes is a partition of the node set
    assert int(part.shard_nodes.sum()) == graph.num_nodes
    counted = np.bincount(part.owner, minlength=n_shards)
    assert np.array_equal(counted, part.shard_nodes)
    # every shard non-empty
    assert (part.shard_nodes > 0).all()
    # nodes_of() reconstructs the node set disjointly
    seen = np.concatenate(
        [part.nodes_of(k) for k in range(n_shards)]
    )
    assert np.array_equal(np.sort(seen), np.arange(graph.num_nodes))


@pytest.mark.parametrize("method", PARTITION_METHODS)
def test_cut_edge_accounting(graph, method):
    part = partition_graph(graph, 4, method=method)
    # independent recount of edges crossing shards
    src = np.repeat(
        np.arange(graph.num_nodes), np.diff(graph.indptr)
    )
    expected = int(
        np.count_nonzero(part.owner[src] != part.owner[graph.indices])
    )
    assert part.cut_edges == expected
    assert part.total_edges == graph.num_edges
    assert part.cut_fraction == pytest.approx(
        expected / graph.num_edges
    )
    assert int(part.shard_degrees.sum()) == graph.num_edges


def test_single_shard_has_no_cut(graph):
    for method in PARTITION_METHODS:
        part = partition_graph(graph, 1, method=method)
        assert part.cut_edges == 0
        assert part.cut_fraction == 0.0
        assert part.replication_factor == 1.0
        assert part.degree_balance == pytest.approx(1.0)


def test_degree_balance_within_tolerance(graph):
    part = partition_graph(graph, 4, method="degree-balanced")
    # LPT keeps the heaviest shard within a few percent of ideal
    assert part.degree_balance < 1.05
    per_shard = part.shard_degrees
    assert per_shard.max() - per_shard.min() <= per_shard.mean() * 0.1


def test_edge_cut_balances_edges(graph):
    part = partition_graph(graph, 4, method="edge-cut")
    # contiguous ranges sized by edge count: within 2x of ideal even on
    # a skewed degree profile this size
    assert part.degree_balance < 2.0
    # edge-cut ranges are contiguous: owners are non-decreasing in id
    assert (np.diff(part.owner) >= 0).all()


def test_replication_counts_distinct_remote_nodes():
    # two shards; shard 0 = {0, 1}, shard 1 = {2, 3}
    g = CSRGraph.from_adjacency([[2, 2, 3], [2], [0], []])
    part = partition_graph(g, 2, owner=np.array([0, 0, 1, 1]))
    assert part.method == "custom"
    # shard 0 references remote {2, 3}; shard 1 references remote {0}
    assert part.cut_edges == 5
    assert list(part.replication) == [2, 1]
    assert part.replication_factor == pytest.approx(1.0 + 3 / 4)


def test_local_fraction_and_masks(graph):
    part = partition_graph(graph, 2, method="edge-cut")
    nodes = np.arange(graph.num_nodes)
    f0 = part.local_fraction(nodes, 0)
    f1 = part.local_fraction(nodes, 1)
    assert f0 + f1 == pytest.approx(1.0)
    mask = part.remote_mask(nodes, 0)
    assert mask.sum() == int(part.shard_nodes[1])
    assert part.local_fraction([], 0) == 1.0


def test_degenerate_degree_profile_keeps_shards_nonempty():
    # all edges on one node: boundaries must still split the node range
    star = CSRGraph.from_adjacency([[1, 2, 3, 4]] + [[]] * 4)
    part = partition_graph(star, 3, method="edge-cut")
    assert (part.shard_nodes > 0).all()
    assert int(part.shard_nodes.sum()) == 5


def test_uniform_graph_cut_matches_random_expectation():
    g = uniform_graph(400, 5000, np.random.default_rng(3))
    part = partition_graph(g, 4, method="hash")
    # random endpoints: cut fraction ~ 1 - 1/K
    assert part.cut_fraction == pytest.approx(0.75, abs=0.05)


def test_partition_validation(graph):
    with pytest.raises(ConfigError):
        partition_graph(graph, 0)
    with pytest.raises(ConfigError):
        partition_graph(graph, 2, method="metis")
    with pytest.raises(ConfigError):
        partition_graph("not a graph", 2)
    with pytest.raises(ConfigError):
        partition_graph(graph, 2, owner=np.zeros(3))
    with pytest.raises(ConfigError):
        partition_graph(
            graph, 2, owner=np.full(graph.num_nodes, 5)
        )


@pytest.mark.parametrize("method", PARTITION_METHODS)
def test_more_shards_than_nodes_is_well_formed(method):
    # K > num_nodes: surplus shards stay empty, partition stays valid
    g = CSRGraph.from_adjacency([[1, 2], [2], [0]])
    part = partition_graph(g, 8, method=method)
    assert part.owner.shape == (3,)
    assert part.owner.min() >= 0 and part.owner.max() < 8
    assert int(part.shard_nodes.sum()) == 3
    assert np.count_nonzero(part.shard_nodes) == 3
    assert part.shard_nodes.size == 8
    # empty shards contribute nothing anywhere
    assert int(part.shard_degrees.sum()) == g.num_edges
    assert (part.replication[part.shard_nodes == 0] == 0).all()
    # stats stay finite
    for value in part.stats().values():
        assert np.isfinite(value)


@pytest.mark.parametrize("method", PARTITION_METHODS)
@pytest.mark.parametrize("n_shards", [1, 2, 4])
def test_single_node_graph_partitions_with_zero_cut(method, n_shards):
    g = CSRGraph.from_adjacency([[]])
    part = partition_graph(g, n_shards, method=method)
    assert part.owner.shape == (1,)
    assert part.cut_edges == 0
    assert part.cut_fraction == 0.0
    assert part.replication_factor == 1.0
    assert int(part.shard_nodes.sum()) == 1


@pytest.mark.parametrize("method", PARTITION_METHODS)
def test_empty_shards_have_empty_node_lists(method):
    g = CSRGraph.from_adjacency([[1], [0]])
    part = partition_graph(g, 5, method=method)
    empties = [
        k for k in range(5) if part.shard_nodes[k] == 0
    ]
    assert len(empties) == 3
    for k in empties:
        assert part.nodes_of(k).size == 0
        assert part.local_fraction([], k) == 1.0


def test_partition_arrays_are_read_only(graph):
    part = partition_graph(graph, 4)
    for arr in (part.owner, part.replication):
        with pytest.raises(ValueError):
            arr[0] = 1


def test_custom_owner_is_copied_not_frozen(graph):
    owner = (np.arange(graph.num_nodes) % 3).astype(np.int32)
    part = partition_graph(graph, 3, owner=owner)
    owner[0] = 2                    # the caller's array stays writeable
    assert part.owner[0] == 0
    assert not part.owner.flags.writeable


# -- cut and halo counts against the frozen np.unique count ---------------


def reference_cut(graph, owner, n_shards):
    """The original count: ``np.unique`` over the cut-edge pairs."""
    src_owner = np.repeat(owner, np.diff(graph.indptr))
    cut_mask = src_owner != owner[graph.indices]
    replication = np.zeros(n_shards, dtype=np.int64)
    if cut_mask.any():
        pairs = (
            src_owner[cut_mask].astype(np.int64) * graph.num_nodes
            + graph.indices[cut_mask].astype(np.int64)
        )
        replication = np.bincount(
            (np.unique(pairs) // graph.num_nodes).astype(np.int64),
            minlength=n_shards,
        ).astype(np.int64)
    return int(np.count_nonzero(cut_mask)), replication


def assert_cut_matches_reference(part, graph):
    cut_edges, replication = reference_cut(graph, part.owner, part.n_shards)
    assert part.cut_edges == cut_edges
    assert part.replication.dtype == np.int64
    assert np.array_equal(part.replication, replication)


CUT_GRAPHS = {
    "rmat": lambda: rmat_graph(2000, 16000, np.random.default_rng(7)),
    # a multigraph with few nodes and many parallel edges, like a
    # service-sized dataset (256 nodes at its true degree)
    "dense": lambda: rmat_graph(256, 20000, np.random.default_rng(3)),
    "sparse": lambda: uniform_graph(300, 0.5, np.random.default_rng(5)),
}


@pytest.mark.parametrize("name", sorted(CUT_GRAPHS))
@pytest.mark.parametrize("method", PARTITION_METHODS + ("custom",))
@pytest.mark.parametrize("n_shards", [1, 2, 4, "more-than-nodes"])
def test_cut_and_replication_match_unique_count(name, method, n_shards):
    graph = CUT_GRAPHS[name]()
    if n_shards == "more-than-nodes":
        n_shards = graph.num_nodes + 3
    if method == "custom":
        owner = np.random.default_rng(n_shards).integers(
            0, n_shards, graph.num_nodes
        )
        part = partition_graph(graph, n_shards, owner=owner)
    else:
        part = partition_graph(graph, n_shards, method=method)
    assert_cut_matches_reference(part, graph)


@pytest.mark.parametrize("method", PARTITION_METHODS)
def test_cut_without_the_pair_table_matches_unique_count(
    monkeypatch, method
):
    # past the table's size bound the distinct cut pairs are counted
    # by np.unique; force that branch on graphs the table would take
    from repro.graph import partition

    monkeypatch.setattr(partition, "_MIN_HALO_TABLE", 0)
    for graph in (CUT_GRAPHS["sparse"](), CUT_GRAPHS["rmat"]()):
        for n_shards in (4, graph.num_nodes + 3):
            part = partition_graph(graph, n_shards, method=method)
            assert_cut_matches_reference(part, graph)
