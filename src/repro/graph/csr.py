"""Compressed-sparse-row graph: the neighbor edge-list array of the paper.

The paper stores graphs "compressed in CSR format" (Section V); the
``indices`` array is exactly the *neighbor edge list array* that SmartSAGE
offloads to the SSD, and ``indptr`` gives each node's extent inside it.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Tuple

import numpy as np

from repro.errors import GraphError

__all__ = ["CSRGraph"]


def _node_ids(ids) -> np.ndarray:
    """``ids`` as an array: narrow unsigned dtypes kept, else ``int64``."""
    ids = np.asarray(ids)
    if ids.dtype.kind == "u" and ids.dtype.itemsize <= 4:
        return ids
    return np.asarray(ids, dtype=np.int64)


class CSRGraph:
    """An immutable directed graph in CSR form.

    Parameters
    ----------
    indptr:
        ``int64[num_nodes + 1]`` -- prefix sums of out-degrees.
    indices:
        ``int32/int64[num_edges]`` -- concatenated neighbor ID lists.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray):
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices)
        if indptr.ndim != 1 or indices.ndim != 1:
            raise GraphError("indptr and indices must be 1-D arrays")
        if indptr.size == 0:
            raise GraphError("indptr must have at least one entry")
        if indptr[0] != 0:
            raise GraphError("indptr must start at 0")
        if indptr[-1] != indices.size:
            raise GraphError(
                f"indptr[-1]={indptr[-1]} != len(indices)={indices.size}"
            )
        if np.any(np.diff(indptr) < 0):
            raise GraphError("indptr must be non-decreasing")
        num_nodes = indptr.size - 1
        if indices.size and (
            indices.min() < 0 or indices.max() >= num_nodes
        ):
            raise GraphError("neighbor IDs out of range")
        self.indptr = indptr
        self.indices = indices
        self.indptr.setflags(write=False)
        self.indices.setflags(write=False)
        self._degrees: Optional[np.ndarray] = None  # memoized np.diff(indptr)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        src: Iterable[int],
        dst: Iterable[int],
        num_nodes: Optional[int] = None,
    ) -> "CSRGraph":
        """Build from parallel source/destination arrays (COO form).

        The edge order is stable: edges that share a source keep their
        input order inside that node's neighbor list.  Each edge is
        packed into one key, ``src << edge_bits | edge_index``, a
        ``uint32`` when the node and edge index bits fit in 32, else a
        ``uint64``.  The keys are unique, so one plain sort of them
        (numpy's SIMD sort) gives the stable order in their low bits.

        Unsigned IDs of up to 32 bits (the narrow dtypes
        :func:`~repro.graph.generators.rmat_graph` draws in) are packed
        and gathered as they are, without an ``int64`` copy; any other
        input is read as ``int64``.  Either way ``indices`` is ``int32``
        below 2**31 nodes, and out-of-range IDs raise
        :class:`~repro.errors.GraphError`.
        """
        src = _node_ids(src)
        dst = _node_ids(dst)
        if src.shape != dst.shape:
            raise GraphError("src and dst must have the same length")
        if num_nodes is None:
            num_nodes = int(max(src.max(), dst.max())) + 1 if src.size else 0
        if src.size and (src.min() < 0 or dst.min() < 0):
            raise GraphError("negative node IDs")
        if src.size and (src.max() >= num_nodes or dst.max() >= num_nodes):
            raise GraphError("node IDs exceed num_nodes")
        num_nodes = int(num_nodes)
        node_bits = max(num_nodes - 1, 0).bit_length()
        edge_bits = max(src.size - 1, 0).bit_length()
        if node_bits + edge_bits > 64:
            raise GraphError(
                f"{num_nodes} nodes and {src.size} edges need a "
                f"{node_bits + edge_bits}-bit sort key, more than 64"
            )
        key_type = np.uint32 if node_bits + edge_bits <= 32 else np.uint64
        key = src.astype(key_type)
        np.left_shift(key, key_type(edge_bits), out=key)
        np.bitwise_or(key, np.arange(src.size, dtype=key_type), out=key)
        key.sort()
        order = np.bitwise_and(key, key_type((1 << edge_bits) - 1), out=key)
        counts = np.bincount(src, minlength=num_nodes)
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        dtype = np.int32 if num_nodes <= np.iinfo(np.int32).max else np.int64
        return cls(indptr, np.take(dst, order).astype(dtype))

    @classmethod
    def from_adjacency(cls, adj: Iterable[Iterable[int]]) -> "CSRGraph":
        """Build from a list of per-node neighbor lists."""
        adj = list(adj)
        indptr = np.zeros(len(adj) + 1, dtype=np.int64)
        for i, nbrs in enumerate(adj):
            indptr[i + 1] = indptr[i] + len(nbrs)
        indices = np.fromiter(
            (v for nbrs in adj for v in nbrs),
            dtype=np.int64,
            count=int(indptr[-1]),
        )
        return cls(indptr, indices)

    # -- basic queries ----------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self.indptr.size - 1

    @property
    def num_edges(self) -> int:
        return int(self.indptr[-1])

    def degree(self, node: int) -> int:
        self._check_node(node)
        return int(self.indptr[node + 1] - self.indptr[node])

    def degrees(self, nodes: Optional[np.ndarray] = None) -> np.ndarray:
        """Out-degrees for ``nodes`` (default: every node), vectorized.

        The full degree array is computed once and memoized (the graph
        is immutable), so per-sample calls are a single gather instead
        of an ``np.diff`` over ``indptr``.  The returned array is
        read-only; callers that mutate must copy.
        """
        if self._degrees is None:
            degs = np.diff(self.indptr)
            degs.setflags(write=False)
            self._degrees = degs
        if nodes is None:
            return self._degrees
        return self._degrees[np.asarray(nodes, dtype=np.int64)]

    @property
    def average_degree(self) -> float:
        return self.num_edges / self.num_nodes if self.num_nodes else 0.0

    def neighbors(self, node: int) -> np.ndarray:
        self._check_node(node)
        return self.indices[self.indptr[node]: self.indptr[node + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(np.any(self.neighbors(u) == v))

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise GraphError(
                f"node {node} out of range [0, {self.num_nodes})"
            )

    def nbytes(self, id_bytes: int = 8) -> int:
        """Size of the neighbor edge-list array at ``id_bytes`` per entry.

        The paper reads 8-byte entries during sampling (Section III-B).
        """
        return self.num_edges * id_bytes

    # -- neighbor sampling --------------------------------------------------

    def sample_neighbors(
        self,
        targets: np.ndarray,
        fanout: int,
        rng: np.random.Generator,
        replace: bool = True,
        return_positions: bool = False,
    ):
        """Sample up to ``fanout`` neighbors of every target node.

        This is Algorithm 1 of the paper: for each target, ``RandomSelect``
        from its neighborhood ``fanout`` times.  With ``replace=True`` (the
        literal algorithm) duplicates can occur; ``replace=False`` gives
        DGL/PyG-style sampling without replacement, returning all neighbors
        when the degree is below the fanout.

        Without replacement, rows draw per-row random-key
        top-``fanout`` subsets, fully vectorized.  The per-row reference
        loop (:func:`repro.perf.reference.noreplace_positions_scalar`)
        gives identical ``offsets`` (counts do not depend on the draw)
        and identical samples for every row whose degree is at most the
        fanout; rows that genuinely sample draw equally uniform but
        differently ordered subsets, since the two consume the
        generator differently.

        Returns
        -------
        samples:
            flat ``int64`` array of sampled neighbor IDs.
        offsets:
            ``int64[len(targets) + 1]`` -- per-target extents in ``samples``.
        positions (only when ``return_positions``):
            flat indices into :attr:`indices` of each sampled entry -- the
            exact memory locations the sampler reads (Fig 5 trace).
        """
        targets = np.asarray(targets, dtype=np.int64)
        if fanout <= 0:
            raise GraphError(f"fanout must be positive, got {fanout}")
        if targets.size and (
            targets.min() < 0 or targets.max() >= self.num_nodes
        ):
            raise GraphError("sampling target out of range")
        degs = self.degrees(targets)
        starts = self.indptr[targets]
        if replace:
            counts = np.where(degs > 0, fanout, 0).astype(np.int64)
            offsets = np.zeros(targets.size + 1, dtype=np.int64)
            np.cumsum(counts, out=offsets[1:])
            nz = degs > 0
            if not np.any(nz):
                empty = np.empty(0, dtype=np.int64)
                return (empty, offsets, empty) if return_positions else (
                    empty, offsets
                )
            picks = rng.random((targets.size, fanout))
            picks = (picks * degs[:, None]).astype(np.int64)
            flat_pos = (starts[:, None] + picks)[nz].ravel()
            samples = self.indices[flat_pos].astype(np.int64)
            if return_positions:
                return samples, offsets, flat_pos
            return samples, offsets
        # Without replacement.
        counts = np.minimum(degs, fanout).astype(np.int64)
        offsets = np.zeros(targets.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        flat_pos = self._noreplace_positions_batched(
            degs, starts, counts, offsets, fanout, rng
        )
        samples = self.indices[flat_pos].astype(np.int64)
        if return_positions:
            return samples, offsets, flat_pos
        return samples, offsets

    def _noreplace_positions_batched(
        self,
        degs: np.ndarray,
        starts: np.ndarray,
        counts: np.ndarray,
        offsets: np.ndarray,
        fanout: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Batched without-replacement draw: random-key top-``fanout``.

        Rows whose degree fits the fanout copy their whole extent; the
        rest draw one uniform key per candidate edge and keep each
        row's ``fanout`` smallest keys (the classic reservoir-free
        exact draw), found with a single segmented ``lexsort`` over all
        rows instead of one ``rng.choice`` per row.
        """
        from repro.graph.segments import expand_extents, segment_local_index

        total = int(offsets[-1])
        out = np.empty(total, dtype=np.int64)
        if total == 0:
            return out
        row_out = offsets[:-1]
        full = (degs > 0) & (degs <= fanout)
        if np.any(full):
            f_deg = degs[full]
            out[expand_extents(row_out[full], f_deg)] = expand_extents(
                starts[full], f_deg
            )
        over = degs > fanout
        if np.any(over):
            s_deg = degs[over]
            m = int(s_deg.sum())
            row_of = np.repeat(
                np.arange(int(s_deg.size), dtype=np.int64), s_deg
            )
            within = segment_local_index(s_deg)
            keys = rng.random(m)
            # Sort each row's candidate edges by key; rows stay
            # contiguous and in order, so the within-segment index of
            # the *sorted* stream doubles as the per-row rank.
            order = np.lexsort((keys, row_of))
            take = order[within < fanout]
            slots = (
                np.repeat(row_out[over], fanout)
                + within[within < fanout]
            )
            out[slots] = np.repeat(starts[over], fanout) + within[take]
        return out

    # -- transforms ----------------------------------------------------------

    def reverse(self) -> "CSRGraph":
        """The transpose graph (in-edges become out-edges)."""
        src = np.repeat(
            np.arange(self.num_nodes, dtype=np.int64), self.degrees()
        )
        return CSRGraph.from_edges(
            self.indices.astype(np.int64), src, num_nodes=self.num_nodes
        )

    def to_undirected(self) -> "CSRGraph":
        """Symmetrize by adding every reverse edge (duplicates kept)."""
        src = np.repeat(
            np.arange(self.num_nodes, dtype=np.int64), self.degrees()
        )
        dst = self.indices.astype(np.int64)
        return CSRGraph.from_edges(
            np.concatenate([src, dst]),
            np.concatenate([dst, src]),
            num_nodes=self.num_nodes,
        )

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate (src, dst) pairs; test-sized graphs only."""
        for u in range(self.num_nodes):
            for v in self.neighbors(u):
                yield (u, int(v))

    def __repr__(self) -> str:
        return (
            f"CSRGraph(nodes={self.num_nodes}, edges={self.num_edges}, "
            f"avg_degree={self.average_degree:.1f})"
        )
