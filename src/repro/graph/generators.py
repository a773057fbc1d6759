"""Synthetic graph generators with power-law degree distributions.

Real web-scale graphs (Table I of the paper) are unavailable offline, so we
synthesize graphs whose *shape* matches: power-law degree distribution,
configurable average degree, and community-like locality from the RMAT
recursion.  The generators are all seedable and vectorized.
"""

from __future__ import annotations

import copy
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.affinity import allowed_cpu_count, place_on_cpu
from repro.errors import GraphError
from repro.graph.csr import CSRGraph

__all__ = [
    "RMAT_DRAWS",
    "DEFAULT_RMAT_DRAW",
    "rmat_graph",
    "powerlaw_graph",
    "uniform_graph",
    "complete_graph",
]

#: the draw contracts :func:`rmat_graph` knows, oldest first; a spec,
#: key or file that names none predates the versioning and means the
#: first
RMAT_DRAWS = ("f64", "u16")
#: the draw contract graphs are made with unless a caller names one
DEFAULT_RMAT_DRAW = "u16"


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
    rmat_draw: str = DEFAULT_RMAT_DRAW,
) -> CSRGraph:
    """Recursive-matrix (RMAT/Kronecker-style) power-law graph.

    Each edge picks its endpoints by descending a 2x2 probability matrix
    ``[[a, b], [c, d]]`` one bit at a time -- the classic generator behind
    Graph500 and the Kronecker graph model the paper's dataset methodology
    builds on.  Level 0 decides the most significant bit of both IDs.
    Node IDs are randomly permuted afterwards so that adjacency is not
    correlated with ID order (matching the paper's observation that
    mini-batch targets are scattered across the graph).

    Which draws decide which bits is a contract: every dataset is seeded
    from its name, so a fixed contract keeps each materialized graph --
    and every run key, stored record and figure built on it --
    byte-identical across versions.  ``rmat_draw`` names one of
    :data:`RMAT_DRAWS`:

    ``"f64"``
        Level by level, ``num_edges`` uniform "right" doubles (the
        destination bit), then ``num_edges`` uniform "down" doubles (the
        source bit, conditioned on the right draw).  Number the streams
        ``s = 2 * level + (0 right, 1 down)``; draw ``k`` of stream ``s``
        is then the stream's ``s * num_edges + k``-th double, and the
        descent ends ``2 * scale * num_edges`` draws on.
    ``"u16"``
        Edge ``e`` takes ``words = 2 * ceil(scale / 8)`` raw 64-bit
        words, edge-major: raw draws ``e * words`` up to
        ``(e + 1) * words``.  Each word is read as four little-endian
        16-bit lanes, so lane ``4 * w + j`` is bits ``16 j`` to
        ``16 j + 15`` of the edge's word ``w``, and lane ``l`` decides
        level ``l``; lanes from ``scale`` on are drawn and ignored.  A
        lane value ``v`` falls in ``[0, 2**16)``, cut into quadrants in
        the order a | b | d | c at ``t_a, t_ab, t_abd = round(p * 2**16)``
        for the cumulative ``p = a, a + b, a + b + d``: the source bit is
        ``v >= t_ab`` and the destination bit ``t_a <= v < t_abd``.  The
        rounding moves each threshold by at most 2**-17, so a quadrant's
        probability is off by at most 2**-16.  The descent ends
        ``words * num_edges`` draws on.  At 8 levels an edge takes 2
        words where ``"f64"`` takes 16 doubles, and no draw becomes a
        float.

    Either way the draws are not made in that order.  ``rng.random``
    turns one 64-bit PCG64 output into one double, and PCG64 can jump to
    any position of its stream, so a copy of the bit generator advanced
    to an edge's first draw yields that edge's draws.  That frees the
    descent to walk the edges in blocks small enough for the CPU cache,
    and to split them into contiguous parts that helper threads descend
    at the same time, one per allowed CPU: every edge still gets the
    very draws the sequential order would give it, so the graph's bytes
    do not depend on how many CPUs the host has.  Before the parts run,
    the caller's generator is moved past all of the descent's draws, as
    the sequential draws would have left it, its buffered 32-bit half
    kept; then one ``rng.permutation`` of ``2**scale`` IDs draws the node
    labels, and each part maps its own edges through them once its
    descent is done.  ``rng`` must therefore be a PCG64 generator, as
    ``np.random.default_rng`` builds.
    """
    if num_nodes < 2:
        raise GraphError("rmat_graph needs at least 2 nodes")
    if (
        isinstance(num_edges, bool)
        or not isinstance(num_edges, (int, np.integer))
        or num_edges < 0
    ):
        raise GraphError(f"num_edges must be an int >= 0, got {num_edges!r}")
    num_edges = int(num_edges)
    d = 1.0 - a - b - c
    for name, p in (("a", a), ("b", b), ("c", c), ("d = 1 - a - b - c", d)):
        if not 0.0 <= p <= 1.0:
            raise GraphError(
                f"rmat probability {name} is {p!r}, not in [0, 1]"
            )
    if rmat_draw not in RMAT_DRAWS:
        raise GraphError(
            f"rmat_draw must be one of {RMAT_DRAWS}, got {rmat_draw!r}"
        )
    bit_generator = rng.bit_generator
    if not isinstance(bit_generator, np.random.PCG64):
        raise GraphError(
            "rmat_graph needs a PCG64 generator (np.random.default_rng), "
            f"got {type(bit_generator).__name__}"
        )
    scale = _next_pow2_exponent(num_nodes)
    if rmat_draw == "f64":
        # Quadrant probabilities: a=(0,0), b=(0,1), c=(1,0), d=(1,1).
        p_right = b + d
        probs = (
            p_right,
            d / p_right if p_right > 0 else 0.0,  # down, given right
            c / (a + c) if (a + c) > 0 else 0.0,  # down, given left
        )
        descend, args = _descend, (num_edges, scale, probs)
        draws = 2 * scale * num_edges
    else:
        words = 2 * -(-scale // 8)
        # t_a, t_ab, t_abd
        thresholds = tuple(round(p * (1 << 16)) for p in (a, a + b, a + b + d))
        descend, args = _descend_u16, (words, scale, thresholds)
        draws = words * num_edges
    ids = np.min_scalar_type((1 << scale) - 1)
    src = np.zeros(num_edges, dtype=ids)
    dst = np.zeros(num_edges, dtype=ids)
    n_parts = max(1, min(allowed_cpu_count(), num_edges // _MIN_PART_EDGES))
    bounds = [num_edges * i // n_parts for i in range(n_parts + 1)]
    parts = [
        (copy.deepcopy(bit_generator), src, dst, lo, hi) + args
        for lo, hi in zip(bounds, bounds[1:])
    ]
    # Skip the caller past the descent's draws.  ``advance`` drops the
    # buffered 32-bit half, which double and raw draws leave alone:
    # restore it.
    state = bit_generator.state
    bit_generator.advance(draws)
    advanced = bit_generator.state
    advanced["has_uint32"] = state["has_uint32"]
    advanced["uinteger"] = state["uinteger"]
    bit_generator.state = advanced
    # Random relabeling folded into [0, num_nodes): the modulo runs over
    # the 2**scale-entry table once instead of over every edge, and the
    # labels keep the descent's narrow dtype, which the CSR build packs
    # and gathers without widening.  Each part relabels its own edges.
    label = (rng.permutation(1 << scale) % num_nodes).astype(ids)
    if n_parts == 1:
        _descend_part(label, descend, *parts[0])
    else:
        with ThreadPoolExecutor(max_workers=n_parts) as pool:
            futures = [
                pool.submit(_descend_on_cpu, i, label, descend, *part)
                for i, part in enumerate(parts)
            ]
            for future in futures:
                future.result()
    return CSRGraph.from_edges(src, dst, num_nodes=num_nodes)


#: edges per descent block: an "f64" block's draw buffer (128 KiB), IDs
#: and flags stay in the L2 cache across all levels.  A "u16" block
#: holds 16 or 32 bytes of words per edge (up to 8 or 16 levels); 8K to
#: 32K-edge blocks descended reddit@4e5 equally fast.
_BLOCK_EDGES = 1 << 14

#: fewest edges worth a helper thread of their own
_MIN_PART_EDGES = 1 << 16

#: PCG64's period: an ``advance`` by ``delta % _PERIOD`` moves a
#: generator by ``delta`` draws, backwards included
_PERIOD = 1 << 128

#: ``(x * _PACK) >> 56`` gathers the low bits of ``x``'s eight bytes
#: into one byte, byte 0's bit on top
_PACK = np.uint64(0x8040201008040201)


def _descend_on_cpu(part: int, *args) -> None:
    """:func:`_descend_part` in a helper thread, on the ``part``-th CPU."""
    place_on_cpu(part)
    _descend_part(*args)


def _descend_part(label: np.ndarray, descend, cursor, src, dst, lo, hi,
                  *args) -> None:
    """``descend`` edges ``[lo, hi)``, then map their IDs through
    ``label``.  ``np.take`` gathers from a narrow-typed index array about
    twice as fast as fancy indexing does."""
    descend(cursor, src, dst, lo, hi, *args)
    for ids in (src[lo:hi], dst[lo:hi]):
        np.take(label, ids, out=ids)


def _descend(
    cursor: np.random.PCG64,
    src: np.ndarray,
    dst: np.ndarray,
    lo: int,
    hi: int,
    num_edges: int,
    scale: int,
    probs: tuple,
) -> None:
    """Descend edges ``[lo, hi)`` into ``src``/``dst``, block by block.

    ``cursor`` is a private copy of the caller's bit generator, still at
    the caller's position; it hops to each stream's draws for the block.
    """
    p_right, p_down_given_right, p_down_given_left = probs
    draw = np.random.Generator(cursor).random
    pos = 0  # draws the cursor has moved past the caller's position
    size = min(_BLOCK_EDGES, hi - lo)
    u_buf = np.empty(size, dtype=np.float64)
    right_buf = np.empty(size, dtype=bool)
    down_buf = np.empty(size, dtype=bool)
    alt_buf = np.empty(size, dtype=bool)
    for start in range(lo, hi, _BLOCK_EDGES):
        stop = min(start + _BLOCK_EDGES, hi)
        n = stop - start
        u, right, down, alt = (
            u_buf[:n], right_buf[:n], down_buf[:n], alt_buf[:n]
        )
        src_block = src[start:stop]
        dst_block = dst[start:stop]
        for stream in range(0, 2 * scale, 2):
            cursor.advance((stream * num_edges + start - pos) % _PERIOD)
            draw(out=u)
            np.less(u, p_right, out=right)
            cursor.advance(num_edges - n)
            draw(out=u)
            pos = (stream + 1) * num_edges + stop
            np.less(u, p_down_given_left, out=down)
            np.less(u, p_down_given_right, out=alt)
            # down = alt where right else down, as three branch-free
            # bool ops (a masked copy is an order of magnitude slower).
            np.bitwise_xor(down, alt, out=alt)
            np.bitwise_and(alt, right, out=alt)
            np.bitwise_xor(down, alt, out=down)
            np.left_shift(src_block, 1, out=src_block)
            np.bitwise_or(src_block, down, out=src_block)
            np.left_shift(dst_block, 1, out=dst_block)
            np.bitwise_or(dst_block, right, out=dst_block)


def _descend_u16(
    cursor: np.random.PCG64,
    src: np.ndarray,
    dst: np.ndarray,
    lo: int,
    hi: int,
    words: int,
    scale: int,
    thresholds: tuple,
) -> None:
    """Descend edges ``[lo, hi)`` under the ``"u16"`` contract.

    ``cursor`` is a private copy of the caller's bit generator, still at
    the caller's position; it jumps to edge ``lo``'s words once, and the
    blocks then read the words in order.  A block compares all its lanes
    at once, one bool per lane, for the source bits and then for the
    destination bits.
    """
    t_a, t_ab, t_abd = thresholds
    lanes = 4 * words
    cursor.advance(lo * words)
    size = min(_BLOCK_EDGES, hi - lo)
    lane_buf = np.empty((size, lanes), dtype=np.uint16)
    bit_buf = np.empty((size, lanes), dtype=bool)
    for start in range(lo, hi, _BLOCK_EDGES):
        stop = min(start + _BLOCK_EDGES, hi)
        n = stop - start
        raw = cursor.random_raw(n * words).astype("<u8", copy=False)
        value = raw.view("<u2").reshape(n, lanes)
        shifted, bits = lane_buf[:n], bit_buf[:n]
        np.greater_equal(value, t_ab, out=bits)
        _pack_ids(src[start:stop], bits, scale)
        # t_a <= v < t_abd as one unsigned compare: v - t_a wraps below t_a
        np.subtract(value, t_a & 0xFFFF, out=shifted)
        np.less(shifted, t_abd - t_a, out=bits)
        _pack_ids(dst[start:stop], bits, scale)


def _pack_ids(ids: np.ndarray, bits: np.ndarray, scale: int) -> None:
    """Write each row of lane bools ``bits`` into ``ids`` as a
    ``scale``-bit ID, lane 0 the most significant bit.

    A row's lanes ``8 k .. 8 k + 7`` are eight bytes of one little-endian
    word, which one multiply packs into the word's top byte: ID byte
    ``k``.  ``bits`` is clobbered.
    """
    packed = bits.view("<u8")
    np.multiply(packed, _PACK, out=packed)
    top = bits.view(np.uint8)[:, 7::8]  # each product's byte 7: >> 56
    np.copyto(ids, top[:, 0])
    for k in range(1, top.shape[1]):
        np.left_shift(ids, 8, out=ids)
        np.bitwise_or(ids, top[:, k], out=ids)
    np.right_shift(ids, 8 * top.shape[1] - scale, out=ids)


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
