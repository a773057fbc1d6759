"""On-disk CSR store: a materialized graph, kept for the next process.

Generating a dataset's graph is most of what a computed service job
costs, and a pool worker's memory cache forgets it whenever the pool is
rebuilt; the other worker, or a second ``repro serve`` on the same
state directory, never had it.  A :class:`GraphStore` keeps each graph
as two ``.npy`` files named by the dataset's content key
(:func:`repro.api.cache.spec_key`)::

    graphs/
      dataset_<sha256>.indices.npy
      dataset_<sha256>.indptr.npy

and maps them back read-only with ``np.load(..., mmap_mode="r")``
(which a ``.npz`` archive would ignore, reading every array into
memory).  The store is a cache: every file can be regenerated from its
key, so writes skip ``fsync``, and a missing, truncated or garbage file
is a miss that the next save overwrites.  Each file is written to a
unique temp file and renamed into place, ``indices`` before ``indptr``,
so a readable ``indptr`` marks a complete pair and concurrent writers
of one key (who write identical bytes) are safe.
"""

from __future__ import annotations

import os
import tempfile
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ConfigError, GraphError
from repro.graph.csr import CSRGraph

__all__ = ["GraphStore"]

#: the two arrays of a stored graph, in the order they are written
_PARTS = ("indices", "indptr")

#: prefix of a write still in progress (or left by a killed writer)
_TMP = ".tmp-"


class GraphStore:
    """Content-addressed CSR graphs under ``root`` (created on save)."""

    def __init__(self, root: str) -> None:
        self.root = root

    def path_for(self, key: str, part: str) -> str:
        """File of ``part`` (``"indptr"`` or ``"indices"``) of ``key``."""
        if not key or "/" in key or key.startswith("."):
            raise ConfigError(f"malformed graph key {key!r}")
        return os.path.join(
            self.root, f"{key.replace(':', '_')}.{part}.npy"
        )

    def load(
        self, key: str, num_nodes: int, num_edges: int
    ) -> Optional[CSRGraph]:
        """The stored graph of ``key``, memory-mapped, or ``None``.

        ``num_nodes`` and ``num_edges`` are the shape the key's graph
        must have; a file of another shape, an unreadable one, or one
        that is not a valid CSR is a miss.
        """
        try:
            indptr = np.load(self.path_for(key, "indptr"), mmap_mode="r")
            indices = np.load(self.path_for(key, "indices"), mmap_mode="r")
        except (OSError, ValueError, EOFError):
            return None
        if (
            indptr.dtype != np.int64
            or indptr.shape != (num_nodes + 1,)
            or indices.dtype not in (np.int32, np.int64)
            or indices.shape != (num_edges,)
        ):
            return None
        try:
            # plain ndarray views of the maps (a memmap subclass would
            # leak into everything computed from them)
            return CSRGraph(np.asarray(indptr), np.asarray(indices))
        except GraphError:
            return None

    def save(self, key: str, graph: CSRGraph) -> bool:
        """Store ``graph`` under ``key``; ``False`` if the disk refused.

        A failed write leaves no file behind and is not an error: the
        next process simply regenerates the graph.
        """
        try:
            os.makedirs(self.root, exist_ok=True)
            for part in _PARTS:
                self._write(self.path_for(key, part), getattr(graph, part))
        except OSError:
            return False
        return True

    def _write(self, path: str, array: np.ndarray) -> None:
        fd, tmp = tempfile.mkstemp(prefix=_TMP, suffix=".npy", dir=self.root)
        try:
            with os.fdopen(fd, "wb") as f:
                np.save(f, array)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def entries(self) -> List[Tuple[float, int, Tuple[str, ...]]]:
        """``(mtime, bytes, paths)`` per stored graph and per temp file.

        A graph's files form one entry, ``indptr`` first so that a
        deletion removes the pair's marker before its data; its mtime
        is its newest file's.
        """
        try:
            names = os.listdir(self.root)
        except OSError:
            return []
        groups = {}
        for name in names:
            if not name.endswith(".npy"):
                continue
            group = name if name.startswith(_TMP) else name.split(".")[0]
            groups.setdefault(group, []).append(name)
        entries = []
        for group in groups.values():
            paths, mtime, size = [], 0.0, 0
            for name in sorted(group, key=lambda n: ".indptr." not in n):
                path = os.path.join(self.root, name)
                try:
                    st = os.stat(path)
                except OSError:
                    continue
                paths.append(path)
                mtime = max(mtime, st.st_mtime)
                size += st.st_size
            if paths:
                entries.append((mtime, size, tuple(paths)))
        return entries
