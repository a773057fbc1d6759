"""Synthetic graph generators with power-law degree distributions.

Real web-scale graphs (Table I of the paper) are unavailable offline, so we
synthesize graphs whose *shape* matches: power-law degree distribution,
configurable average degree, and community-like locality from the RMAT
recursion.  The generators are all seedable and vectorized.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph

__all__ = ["rmat_graph", "powerlaw_graph", "uniform_graph", "complete_graph"]


def _next_pow2_exponent(n: int) -> int:
    exp = 0
    while (1 << exp) < n:
        exp += 1
    return exp


def rmat_graph(
    num_nodes: int,
    num_edges: int,
    rng: np.random.Generator,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
) -> CSRGraph:
    """Recursive-matrix (RMAT/Kronecker-style) power-law graph.

    Each edge picks its endpoints by descending a 2x2 probability matrix
    ``[[a, b], [c, d]]`` one bit at a time -- the classic generator behind
    Graph500 and the Kronecker graph model the paper's dataset methodology
    builds on.  Node IDs are randomly permuted afterwards so that adjacency
    is not correlated with ID order (matching the paper's observation that
    mini-batch targets are scattered across the graph).

    The draw order is a contract: level by level, ``num_edges`` uniform
    "right" draws, then ``num_edges`` uniform "down" draws, then one
    ``rng.permutation`` of ``2**scale`` IDs.  Every dataset is seeded
    from its name, so a fixed stream keeps each materialized graph --
    and every run key, stored record and figure built on it --
    byte-identical across versions.
    """
    if num_nodes < 2:
        raise GraphError("rmat_graph needs at least 2 nodes")
    d = 1.0 - a - b - c
    if d < 0:
        raise GraphError("rmat probabilities exceed 1")
    scale = _next_pow2_exponent(num_nodes)
    src = np.zeros(num_edges, dtype=np.int64)
    dst = np.zeros(num_edges, dtype=np.int64)
    # Descend one quadrant per bit, vectorized over all edges, in
    # buffers allocated once.  Quadrant probabilities: a=(0,0),
    # b=(0,1), c=(1,0), d=(1,1).
    p_right = b + d
    p_down_given_right = d / p_right if p_right > 0 else 0.0
    p_down_given_left = c / (a + c) if (a + c) > 0 else 0.0
    u = np.empty(num_edges, dtype=np.float64)
    right = np.empty(num_edges, dtype=bool)
    down = np.empty(num_edges, dtype=bool)
    alt = np.empty(num_edges, dtype=bool)
    for _level in range(scale):
        rng.random(out=u)
        np.less(u, p_right, out=right)
        rng.random(out=u)
        np.less(u, p_down_given_left, out=down)
        np.less(u, p_down_given_right, out=alt)
        # down = alt where right else down, as three branch-free bool
        # ops (a masked copy is an order of magnitude slower).
        np.bitwise_xor(down, alt, out=alt)
        np.bitwise_and(alt, right, out=alt)
        np.bitwise_xor(down, alt, out=down)
        np.left_shift(src, 1, out=src)
        np.bitwise_or(src, down, out=src)
        np.left_shift(dst, 1, out=dst)
        np.bitwise_or(dst, right, out=dst)
    # Random relabeling folded into [0, num_nodes): the modulo runs over
    # the 2**scale-entry table once instead of over every edge.
    label = rng.permutation(1 << scale) % num_nodes
    return CSRGraph.from_edges(label[src], label[dst], num_nodes=num_nodes)


def powerlaw_graph(
    num_nodes: int,
    avg_degree: float,
    rng: np.random.Generator,
    exponent: float = 2.1,
    max_degree_frac: float = 0.1,
) -> CSRGraph:
    """Configuration-model graph with Zipf-distributed out-degrees.

    Degrees are drawn from a truncated power law with the given exponent
    and rescaled so the mean matches ``avg_degree``; edge endpoints are then
    chosen preferentially (proportional to the degree sequence), giving a
    heavy-tailed in-degree distribution as well.
    """
    if num_nodes < 2:
        raise GraphError("powerlaw_graph needs at least 2 nodes")
    if avg_degree <= 0:
        raise GraphError("avg_degree must be positive")
    max_degree = max(2, int(num_nodes * max_degree_frac))
    raw = rng.zipf(exponent, size=num_nodes).astype(np.float64)
    raw = np.minimum(raw, max_degree)
    degrees = raw * (avg_degree / raw.mean())
    # Stochastic rounding keeps the target mean at non-integer degrees.
    floor = np.floor(degrees)
    degrees = (floor + (rng.random(num_nodes) < (degrees - floor))).astype(
        np.int64
    )
    num_edges = int(degrees.sum())
    src = np.repeat(np.arange(num_nodes, dtype=np.int64), degrees)
    # Preferential destination choice: sample positions in the edge-stub
    # list, which is distributed proportionally to degree.
    stub_owner = src  # the stub list itself
    dst = stub_owner[rng.integers(0, num_edges, size=num_edges)]
    return CSRGraph.from_edges(src, dst, num_nodes=num_nodes)


def uniform_graph(
    num_nodes: int, avg_degree: float, rng: np.random.Generator
) -> CSRGraph:
    """Erdos-Renyi-style graph with uniform random endpoints (for tests)."""
    if num_nodes < 2:
        raise GraphError("uniform_graph needs at least 2 nodes")
    num_edges = int(round(num_nodes * avg_degree))
    src = rng.integers(0, num_nodes, size=num_edges)
    dst = rng.integers(0, num_nodes, size=num_edges)
    return CSRGraph.from_edges(src, dst, num_nodes=num_nodes)


def complete_graph(num_nodes: int) -> CSRGraph:
    """Fully connected graph without self loops (for exactness tests)."""
    ids = np.arange(num_nodes, dtype=np.int64)
    src = np.repeat(ids, num_nodes - 1)
    dst = np.concatenate([np.delete(ids, i) for i in range(num_nodes)])
    return CSRGraph.from_edges(src, dst, num_nodes=num_nodes)
