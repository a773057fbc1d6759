"""Bit-identity of the graph construction kernels against frozen references.

``rmat_graph`` descends into preallocated buffers and relabels inside its
parts, and ``CSRGraph.from_edges`` orders edges with one sort of packed
``src << edge_bits | edge_index`` keys.  Both must reproduce the original
allocation-per-level descent and int64 stable argsort exactly: the same
``indptr``, the same ``indices`` (values and dtype) and the same
generator state afterwards, since every dataset, run
key and stored record is derived from them.  The references below are
the original kernels, kept here so that only tests see them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph import CSRGraph, generators
from repro.graph.generators import (
    complete_graph,
    powerlaw_graph,
    rmat_graph,
    uniform_graph,
)

# -- frozen references --------------------------------------------------------


def reference_from_edges(src, dst, num_nodes=None):
    """The original O(E log E) build: int64 stable argsort, then gather."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if num_nodes is None:
        num_nodes = int(max(src.max(), dst.max())) + 1 if src.size else 0
    order = np.argsort(src, kind="stable")
    src_sorted = src[order]
    dst_sorted = dst[order]
    counts = np.bincount(src_sorted, minlength=num_nodes)
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    dtype = np.int32 if num_nodes <= np.iinfo(np.int32).max else np.int64
    return indptr, dst_sorted.astype(dtype)


def reference_rmat(num_nodes, num_edges, rng, a=0.57, b=0.19, c=0.19):
    """The original descent: fresh arrays every level, fold after gather."""
    d = 1.0 - a - b - c
    scale = 0
    while (1 << scale) < num_nodes:
        scale += 1
    src = np.zeros(num_edges, dtype=np.int64)
    dst = np.zeros(num_edges, dtype=np.int64)
    p_right = b + d
    p_down_given_right = d / p_right if p_right > 0 else 0.0
    p_down_given_left = c / (a + c) if (a + c) > 0 else 0.0
    for _level in range(scale):
        go_right = rng.random(num_edges) < p_right
        p_down = np.where(go_right, p_down_given_right, p_down_given_left)
        go_down = rng.random(num_edges) < p_down
        src = (src << 1) | go_down.astype(np.int64)
        dst = (dst << 1) | go_right.astype(np.int64)
    perm = rng.permutation(1 << scale)
    src = perm[src] % num_nodes
    dst = perm[dst] % num_nodes
    return reference_from_edges(src, dst, num_nodes=num_nodes)


def assert_same_csr(graph, reference):
    indptr, indices = reference
    assert graph.indptr.dtype == indptr.dtype
    assert np.array_equal(graph.indptr, indptr)
    assert graph.indices.dtype == indices.dtype
    assert np.array_equal(graph.indices, indices)


def coo(graph):
    """The graph's edges as (src, dst) arrays in CSR order."""
    src = np.repeat(np.arange(graph.num_nodes, dtype=np.int64),
                    graph.degrees())
    return src, graph.indices.astype(np.int64)


def with_reference_build(monkeypatch, fn):
    """Run ``fn`` with ``from_edges`` swapped for the reference build."""

    def reference(cls, src, dst, num_nodes=None):
        return cls(*reference_from_edges(src, dst, num_nodes))

    monkeypatch.setattr(CSRGraph, "from_edges", classmethod(reference))
    try:
        return fn()
    finally:
        monkeypatch.undo()


# -- rmat_graph ---------------------------------------------------------------

#: (num_nodes, num_edges): the smallest graph, reddit at a 4e5-edge
#: budget, both sides of the 16-bit/32-bit ID boundary at 2**16 nodes,
#: and a 19-level graph
RMAT_SIZES = [
    (2, 50),
    (277, 400_000),
    (65_536, 200_000),
    (65_537, 200_000),
    (300_000, 600_000),
]


@pytest.mark.parametrize("num_nodes,num_edges", RMAT_SIZES)
def test_rmat_matches_reference(num_nodes, num_edges):
    rng = np.random.default_rng(num_nodes)
    ref_rng = np.random.default_rng(num_nodes)
    graph = rmat_graph(num_nodes, num_edges, rng, rmat_draw="f64")
    assert_same_csr(graph, reference_rmat(num_nodes, num_edges, ref_rng))
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert_same_csr(
        graph.reverse(), reference_from_edges(*coo(graph)[::-1], num_nodes)
    )


def test_rmat_matches_reference_with_custom_probabilities():
    rng = np.random.default_rng(3)
    ref_rng = np.random.default_rng(3)
    graph = rmat_graph(1000, 5000, rng, a=0.25, b=0.25, c=0.25,
                       rmat_draw="f64")
    assert_same_csr(
        graph, reference_rmat(1000, 5000, ref_rng, a=0.25, b=0.25, c=0.25)
    )
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_rmat_without_edges_matches_reference():
    rng = np.random.default_rng(5)
    ref_rng = np.random.default_rng(5)
    graph = rmat_graph(100, 0, rng, rmat_draw="f64")
    assert graph.num_edges == 0
    assert_same_csr(graph, reference_rmat(100, 0, ref_rng))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


#: a graph wide enough for five parts whose bounds fall inside blocks
#: (5 * 65_536 + 12_345 edges), one smaller than a block, and no edges
PART_SIZES = [(300, 340_025), (1000, 5000), (100, 0)]


def spy_parts(monkeypatch, cpus, kernel="_descend"):
    """Pretend ``cpus`` CPUs are allowed; returns the ranges that the
    descent ``kernel`` walked."""
    ranges = []
    descend = getattr(generators, kernel)

    def spy(cursor, src, dst, lo, hi, *rest):
        ranges.append((lo, hi))
        descend(cursor, src, dst, lo, hi, *rest)

    monkeypatch.setattr(generators, "allowed_cpu_count", lambda: cpus)
    monkeypatch.setattr(generators, kernel, spy)
    return ranges


@pytest.mark.parametrize("num_nodes,num_edges", PART_SIZES)
@pytest.mark.parametrize("cpus", [1, 2, 3, 5])
def test_rmat_does_not_depend_on_part_count(
    monkeypatch, cpus, num_nodes, num_edges
):
    ranges = spy_parts(monkeypatch, cpus)
    rng = np.random.default_rng(cpus)
    ref_rng = np.random.default_rng(cpus)
    graph = rmat_graph(num_nodes, num_edges, rng, rmat_draw="f64")
    assert_same_csr(graph, reference_rmat(num_nodes, num_edges, ref_rng))
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    n_parts = cpus if num_edges > 65_536 else 1
    assert len(ranges) == n_parts
    bounds = sorted(ranges)
    assert bounds[0][0] == 0 and bounds[-1][1] == num_edges
    assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))


@pytest.mark.parametrize("cpus", [1, 2])
def test_rmat_keeps_a_buffered_32bit_half(monkeypatch, cpus):
    spy_parts(monkeypatch, cpus)
    rng = np.random.default_rng(8)
    ref_rng = np.random.default_rng(8)
    for r in (rng, ref_rng):
        r.integers(0, 2**32, dtype=np.uint32)
    assert rng.bit_generator.state["has_uint32"] == 1
    graph = rmat_graph(277, 150_000, rng, rmat_draw="f64")
    assert_same_csr(graph, reference_rmat(277, 150_000, ref_rng))
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    # and the buffered half is the next 32-bit draw on both
    assert rng.integers(0, 2**32, dtype=np.uint32) == ref_rng.integers(
        0, 2**32, dtype=np.uint32
    )


def test_rmat_reraises_a_helper_failure(monkeypatch):
    descend = generators._descend

    def failing(cursor, src, dst, lo, hi, *rest):
        if lo > 0:
            raise RuntimeError(f"part at {lo} failed")
        descend(cursor, src, dst, lo, hi, *rest)

    monkeypatch.setattr(generators, "allowed_cpu_count", lambda: 2)
    monkeypatch.setattr(generators, "_descend", failing)
    with pytest.raises(RuntimeError, match="part at 75000 failed"):
        rmat_graph(277, 150_000, np.random.default_rng(0), rmat_draw="f64")


def test_rmat_needs_a_pcg64_generator():
    rng = np.random.Generator(np.random.MT19937(0))
    with pytest.raises(GraphError, match="PCG64"):
        rmat_graph(100, 1000, rng)


# -- rmat_graph, "u16" draws --------------------------------------------------


def reference_rmat_u16(num_nodes, num_edges, rng, a=0.57, b=0.19, c=0.19):
    """The "u16" contract read sequentially, word by word, lane by lane."""
    d = 1.0 - a - b - c
    scale = 0
    while (1 << scale) < num_nodes:
        scale += 1
    words = 2 * -(-scale // 8)
    t_a, t_ab, t_abd = (round(p * 2**16) for p in (a, a + b, a + b + d))
    src = np.zeros(num_edges, dtype=np.int64)
    dst = np.zeros(num_edges, dtype=np.int64)
    for edge in range(num_edges):
        for word_index in range(words):
            word = int(rng.bit_generator.random_raw())
            for lane in range(4):
                if 4 * word_index + lane >= scale:
                    continue
                v = (word >> (16 * lane)) & 0xFFFF
                src[edge] = (src[edge] << 1) | (v >= t_ab)
                dst[edge] = (dst[edge] << 1) | (t_a <= v < t_abd)
    perm = rng.permutation(1 << scale)
    return reference_from_edges(
        perm[src] % num_nodes, perm[dst] % num_nodes, num_nodes=num_nodes
    )


#: (num_nodes, num_edges, probabilities): one ID byte (8 levels), two
#: (reddit's 277 nodes, 9 levels), three (17 levels), one level, no
#: edges, and custom and degenerate matrices
U16_CASES = [
    (256, 1500, {}),
    (277, 1500, {}),
    (70_000, 700, {}),
    (2, 300, {}),
    (100, 0, {}),
    (1000, 1200, {"a": 0.25, "b": 0.25, "c": 0.25}),
    (300, 600, {"a": 1.0, "b": 0.0, "c": 0.0}),
    (300, 600, {"a": 0.0, "b": 0.0, "c": 0.0}),
    (300, 600, {"a": 0.5, "b": 0.0, "c": 0.0}),
]


@pytest.mark.parametrize("num_nodes,num_edges,probs", U16_CASES)
@pytest.mark.parametrize("cpus", [1, 2, 5])
def test_rmat_u16_matches_sequential_reference(
    monkeypatch, cpus, num_nodes, num_edges, probs
):
    # small parts and blocks, so that a part's bounds fall inside blocks
    monkeypatch.setattr(generators, "_MIN_PART_EDGES", 64)
    monkeypatch.setattr(generators, "_BLOCK_EDGES", 97)
    ranges = spy_parts(monkeypatch, cpus, kernel="_descend_u16")
    rng = np.random.default_rng(cpus + num_edges)
    ref_rng = np.random.default_rng(cpus + num_edges)
    for r in (rng, ref_rng):
        r.integers(0, 2**32, dtype=np.uint32)  # a buffered 32-bit half
    graph = rmat_graph(num_nodes, num_edges, rng, rmat_draw="u16", **probs)
    assert_same_csr(
        graph, reference_rmat_u16(num_nodes, num_edges, ref_rng, **probs)
    )
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert len(ranges) == max(1, min(cpus, num_edges // 64))
    bounds = sorted(ranges)
    assert bounds[0][0] == 0 and bounds[-1][1] == num_edges


def test_rmat_u16_degenerate_matrices_put_every_edge_in_one_quadrant():
    for probs, expected in (
        ({"a": 1.0, "b": 0.0, "c": 0.0}, "diagonal"),
        ({"a": 0.0, "b": 0.0, "c": 0.0}, "diagonal"),
        ({"a": 0.0, "b": 1.0, "c": 0.0}, "off"),
    ):
        # 256 nodes: the relabeling is a bijection, so quadrant (0, 0)
        # and (1, 1) descents give self loops and b's never do
        graph = rmat_graph(256, 500, np.random.default_rng(0), **probs)
        src, dst = coo(graph)
        assert graph.num_edges == 500
        assert np.all(src == dst) == (expected == "diagonal")
        assert len(np.unique(src)) == 1 and len(np.unique(dst)) == 1


def test_rmat_u16_is_the_default_and_differs_from_f64():
    default = rmat_graph(277, 5000, np.random.default_rng(4))
    u16 = rmat_graph(277, 5000, np.random.default_rng(4), rmat_draw="u16")
    f64 = rmat_graph(277, 5000, np.random.default_rng(4), rmat_draw="f64")
    assert_same_csr(default, (u16.indptr, u16.indices))
    assert not np.array_equal(u16.indices, f64.indices)


def test_rmat_u16_quadrant_frequencies_follow_the_matrix():
    # one level: every edge's IDs are its quadrant's bits
    rng = np.random.default_rng(11)
    n = 200_000
    graph = rmat_graph(2, n, rng, a=0.57, b=0.19, c=0.19)
    src, dst = coo(graph)
    # the relabeling may swap IDs 0 and 1; undo it with the (0, 0) count
    share = np.bincount(2 * src + dst, minlength=4) / n
    if share[0] < share[3]:
        share = share[::-1]
    assert share == pytest.approx([0.57, 0.19, 0.19, 0.05], abs=0.005)


def test_rmat_rejects_an_unknown_draw():
    with pytest.raises(GraphError, match="rmat_draw"):
        rmat_graph(100, 10, np.random.default_rng(0), rmat_draw="f32")


# -- other generators and transforms -------------------------------------------


@pytest.mark.parametrize(
    "build",
    [
        lambda rng: powerlaw_graph(277, 12.0, rng),
        lambda rng: powerlaw_graph(70_000, 3.0, rng),
        lambda rng: uniform_graph(65_537, 2.0, rng),
        lambda rng: uniform_graph(300, 5.0, rng),
        lambda rng: complete_graph(9),
    ],
    ids=["powerlaw", "powerlaw-2digit", "uniform-2digit", "uniform",
         "complete"],
)
def test_generators_match_reference_build(monkeypatch, build):
    rng = np.random.default_rng(21)
    ref_rng = np.random.default_rng(21)
    graph = build(rng)
    ref = with_reference_build(monkeypatch, lambda: build(ref_rng))
    assert_same_csr(graph, (ref.indptr, ref.indices))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("num_nodes", [5, 277, 65_537])
def test_transforms_match_reference(monkeypatch, num_nodes):
    graph = uniform_graph(num_nodes, 4.0, np.random.default_rng(num_nodes))
    for transform in (CSRGraph.reverse, CSRGraph.to_undirected):
        ref = with_reference_build(monkeypatch, lambda: transform(graph))
        assert_same_csr(transform(graph), (ref.indptr, ref.indices))


# -- from_edges edge cases ---------------------------------------------------


@pytest.mark.parametrize("num_nodes", [0, 1, 7, 70_000])
def test_from_edges_empty_matches_reference(num_nodes):
    empty = np.empty(0, dtype=np.int64)
    graph = CSRGraph.from_edges(empty, empty, num_nodes=num_nodes)
    assert graph.num_nodes == num_nodes and graph.num_edges == 0
    assert_same_csr(graph, reference_from_edges(empty, empty, num_nodes))


def test_from_edges_empty_infers_zero_nodes():
    graph = CSRGraph.from_edges([], [])
    assert graph.num_nodes == 0
    assert_same_csr(graph, reference_from_edges([], []))


@pytest.mark.parametrize("high", [1, 2, 300, 65_536, 65_537, 200_000])
def test_from_edges_inferred_num_nodes_matches_reference(high):
    rng = np.random.default_rng(high)
    src = rng.integers(0, high, size=3000)
    dst = rng.integers(0, high, size=3000)
    src[0] = high - 1  # pin the inferred node count
    graph = CSRGraph.from_edges(src, dst)
    assert graph.num_nodes == high
    assert_same_csr(graph, reference_from_edges(src, dst))


def test_from_edges_is_stable_within_a_source():
    # sources above and below 2**16, destinations in input order
    src = np.array([70_000, 3, 70_000, 65_539, 3, 70_000])
    dst = np.array([5, 9, 4, 1, 8, 3])
    graph = CSRGraph.from_edges(src, dst, num_nodes=70_001)
    assert list(graph.neighbors(3)) == [9, 8]
    assert list(graph.neighbors(65_539)) == [1]
    assert list(graph.neighbors(70_000)) == [5, 4, 3]


@settings(max_examples=60, deadline=None)
@given(
    num_nodes=st.sampled_from([1, 2, 3, 255, 256, 65_535, 65_536,
                               65_537, 131_073, 300_000]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    num_edges=st.integers(min_value=0, max_value=400),
)
def test_from_edges_property_matches_reference(num_nodes, seed, num_edges):
    rng = np.random.default_rng(seed)
    # cluster some IDs at the ends of a 16-bit half and of the ID range
    hot = np.minimum([0, 65_535, 65_536, num_nodes - 1], num_nodes - 1)
    src = np.where(rng.random(num_edges) < 0.3,
                   rng.choice(hot, num_edges),
                   rng.integers(0, num_nodes, num_edges))
    dst = rng.integers(0, num_nodes, num_edges)
    assert_same_csr(
        CSRGraph.from_edges(src, dst, num_nodes=num_nodes),
        reference_from_edges(src, dst, num_nodes),
    )


#: (key bits, num_nodes, num_edges): packed keys of node_bits +
#: edge_bits = 31 and 32 bits are ``uint32`` (at 32, ``num_nodes <<
#: edge_bits`` is 2**32, one past the type), 33 bits ``uint64``
KEY_WIDTHS = [(31, 8192, 2**18), (32, 8192, 2**19), (33, 8192, 2**19 + 1)]


@pytest.mark.parametrize("bits,num_nodes,num_edges", KEY_WIDTHS)
@pytest.mark.parametrize("dtype", [np.int64, np.uint16, np.uint32])
def test_from_edges_packed_key_widths_match_reference(
    bits, num_nodes, num_edges, dtype
):
    assert (num_nodes - 1).bit_length() + (num_edges - 1).bit_length() == bits
    rng = np.random.default_rng(num_edges)
    src = rng.integers(0, num_nodes, num_edges)
    dst = rng.integers(0, num_nodes, num_edges)
    # the first and last node own edges at both ends of the input
    src[:3] = src[-3:] = [num_nodes - 1, 0, num_nodes - 1]
    src, dst = src.astype(dtype), dst.astype(dtype)
    graph = CSRGraph.from_edges(src, dst, num_nodes=num_nodes)
    assert_same_csr(graph, reference_from_edges(src, dst, num_nodes))
    assert_same_csr(
        CSRGraph.from_edges(src, dst), reference_from_edges(src, dst)
    )


# -- error paths through the packed-key build ----------------------------------


@pytest.mark.parametrize("num_nodes", [10, 70_000])
def test_from_edges_rejects_negative_ids(num_nodes):
    with pytest.raises(GraphError, match="negative"):
        CSRGraph.from_edges([0, -1], [1, 2], num_nodes=num_nodes)
    with pytest.raises(GraphError, match="negative"):
        CSRGraph.from_edges([0, 1], [1, -3], num_nodes=num_nodes)


@pytest.mark.parametrize("num_nodes", [10, 70_000])
def test_from_edges_rejects_ids_past_num_nodes(num_nodes):
    with pytest.raises(GraphError, match="exceed"):
        CSRGraph.from_edges([0, num_nodes], [1, 2], num_nodes=num_nodes)
    with pytest.raises(GraphError, match="exceed"):
        CSRGraph.from_edges([0, 1], [num_nodes + 5, 2],
                            num_nodes=num_nodes)


@pytest.mark.parametrize("num_nodes,edges", [
    (2**65, ([], [])),  # 65 node bits, no edges
    (2**63 + 1, ([0, 5], [1, 2])),  # 64 node bits and 1 edge bit
])
def test_from_edges_rejects_a_key_wider_than_64_bits(num_nodes, edges):
    with pytest.raises(GraphError, match=f"{num_nodes} nodes and "
                       f"{len(edges[0])} edges need a 65-bit sort key"):
        CSRGraph.from_edges(*edges, num_nodes=num_nodes)


def test_from_edges_rejects_mismatched_shapes():
    with pytest.raises(GraphError, match="same length"):
        CSRGraph.from_edges([0, 1, 2], [1, 2])
    with pytest.raises(GraphError, match="same length"):
        CSRGraph.from_edges(np.zeros(70_000, dtype=np.int64),
                            np.zeros(69_999, dtype=np.int64),
                            num_nodes=70_000)


# -- narrow unsigned input ----------------------------------------------------


@pytest.mark.parametrize("dtype,num_nodes", [
    (np.uint8, 200),
    (np.uint16, 300),
    (np.uint16, 65_536),
    (np.uint32, 70_000),
    (np.uint32, 300_000),
])
def test_from_edges_unsigned_input_matches_int64(dtype, num_nodes):
    rng = np.random.default_rng(num_nodes)
    src = rng.integers(0, num_nodes, 5000)
    dst = rng.integers(0, num_nodes, 5000)
    wide = CSRGraph.from_edges(src, dst, num_nodes=num_nodes)
    narrow = CSRGraph.from_edges(
        src.astype(dtype), dst.astype(dtype), num_nodes=num_nodes
    )
    assert narrow.indices.dtype == np.int32
    assert_same_csr(narrow, (wide.indptr, wide.indices))
    assert_same_csr(narrow, reference_from_edges(src, dst, num_nodes))
    # mixed widths and an inferred node count build the same graph
    mixed = CSRGraph.from_edges(src.astype(dtype), dst)
    assert_same_csr(mixed, reference_from_edges(src, dst))


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32])
def test_from_edges_unsigned_input_out_of_range_raises(dtype):
    ids = np.array([0, 5, 9], dtype=dtype)
    zeros = np.zeros(3, dtype=dtype)
    with pytest.raises(GraphError, match="exceed"):
        CSRGraph.from_edges(ids, zeros, num_nodes=9)
    with pytest.raises(GraphError, match="exceed"):
        CSRGraph.from_edges(zeros, ids, num_nodes=9)
    assert CSRGraph.from_edges(ids, ids, num_nodes=10).num_edges == 3


def test_rmat_hands_from_edges_its_narrow_ids(monkeypatch):
    # the relabelled IDs stay in the descent's unsigned dtype
    seen = []
    build = CSRGraph.from_edges.__func__

    def spy(cls, src, dst, num_nodes=None):
        seen.append((src.dtype, dst.dtype))
        return build(cls, src, dst, num_nodes)

    monkeypatch.setattr(CSRGraph, "from_edges", classmethod(spy))
    rmat_graph(277, 4000, np.random.default_rng(1))
    rmat_graph(70_000, 4000, np.random.default_rng(1))
    assert seen == [(np.uint16, np.uint16), (np.uint32, np.uint32)]
