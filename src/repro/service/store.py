"""Disk-backed, cross-process result store (content-addressed).

The in-memory :class:`repro.api.cache.ContentCache` memoizes expensive
artifacts within one process; this module extends the same
content-address discipline to *results on disk*, so an identical
:class:`~repro.api.spec.RunSpec` -- resubmitted in another process,
another campaign, or after a restart -- is **served** instead of
re-simulated.

Records are deliberately boring:

* keyed by :func:`run_key`, the canonical spec key (sha256 of the
  validated spec's :func:`~repro.api.cache.canonical_json` form);
* schema-versioned JSON (:data:`RESULT_SCHEMA`) holding the spec and
  the serialized :class:`~repro.pipeline.backends.base.PipelineResult`
  -- nothing non-deterministic (no timestamps, hostnames, or pids), so
  the *bytes* of a record are identical no matter which process
  produced it;
* written atomically (unique temp file + ``os.replace``), so readers
  in other processes never observe a half-written record and
  concurrent writers of the same key are safe (they write identical
  bytes).
"""

from __future__ import annotations

import os
import json
import tempfile
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.api.cache import canonical_json, spec_key
from repro.api.spec import RunSpec
from repro.errors import ConfigError
from repro.graph.store import GraphStore
from repro.pipeline.backends.base import PipelineResult

__all__ = [
    "RESULT_SCHEMA",
    "ResultStore",
    "run_key",
    "make_record",
    "record_bytes",
    "result_to_dict",
    "result_from_dict",
]

#: schema tag stamped into every stored record
RESULT_SCHEMA = "repro.result/v1"


def run_key(spec: RunSpec) -> str:
    """Canonical content address of one validated run spec."""
    if isinstance(spec, dict):
        spec = RunSpec.from_dict(spec)
    if not isinstance(spec, RunSpec):
        raise ConfigError(
            f"run_key needs a RunSpec or mapping, got {type(spec).__name__}"
        )
    spec.validate()
    return spec_key("run", **spec.to_dict())


def result_to_dict(result: PipelineResult) -> dict:
    """Serializable form of a pipeline result (JSON round-trip)."""
    return {
        "design": result.design,
        "mode": result.mode,
        "n_batches": result.n_batches,
        "n_workers": result.n_workers,
        "elapsed_s": result.elapsed_s,
        "gpu_busy_s": result.gpu_busy_s,
        "gpu_idle_fraction": result.gpu_idle_fraction,
        "phase_means": dict(result.phase_means),
        "n_shards": result.n_shards,
        "backend_stats": dict(result.backend_stats),
    }


def result_from_dict(data: dict) -> PipelineResult:
    """Rebuild a :class:`PipelineResult` stored by :func:`result_to_dict`."""
    if not isinstance(data, dict):
        raise ConfigError(f"result must be a mapping, got {data!r}")
    known = {
        "design", "mode", "n_batches", "n_workers", "elapsed_s",
        "gpu_busy_s", "gpu_idle_fraction", "phase_means", "n_shards",
        "backend_stats",
    }
    unknown = set(data) - known
    if unknown:
        raise ConfigError(
            f"unknown result field(s) {sorted(unknown)}; "
            f"known: {sorted(known)}"
        )
    return PipelineResult(**data)


def make_record(key: str, spec_dict: dict, result_dict: dict) -> dict:
    """The schema-versioned record stored for one evaluated spec.

    Contains only deterministic content -- byte-identity of records is
    part of the store's contract (see the concurrency stress tests).
    """
    return {
        "schema": RESULT_SCHEMA,
        "key": key,
        "spec": spec_dict,
        "result": result_dict,
    }


def record_bytes(record: dict) -> bytes:
    """Canonical on-disk encoding of a record (one line + newline)."""
    return (canonical_json(record) + "\n").encode("utf-8")


class ResultStore:
    """Content-addressed record store on the filesystem.

    One file per key under ``root``; the file name is the key with
    ``:`` replaced by ``_`` (keys are ``kind:hexdigest``).  Safe for
    concurrent readers and writers in any number of processes: writes
    go through a unique temp file and ``os.replace``, reads re-check
    the schema, and the in-memory hit/miss counters are per-instance
    observability, not shared state.

    ``graph_root`` names the service's graph store
    (:class:`~repro.graph.store.GraphStore`, ``<state>/graphs``), which
    :meth:`prune` bounds along with the records.
    """

    def __init__(self, root: str, graph_root: Optional[str] = None) -> None:
        self.root = root
        self.graph_root = graph_root
        os.makedirs(root, exist_ok=True)
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.puts = 0

    # -- key <-> path -----------------------------------------------------

    def path_for(self, key: str) -> str:
        if not key or "/" in key or key.startswith("."):
            raise ConfigError(f"malformed store key {key!r}")
        return os.path.join(self.root, key.replace(":", "_") + ".json")

    # -- mapping surface ---------------------------------------------------

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self.path_for(key))

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def keys(self) -> Iterator[str]:
        try:
            names = sorted(os.listdir(self.root))
        except OSError:
            return
        for name in names:
            if name.endswith(".json") and not name.startswith("."):
                yield name[: -len(".json")].replace("_", ":", 1)

    def get(self, key: str) -> Optional[dict]:
        """The stored record for ``key``, or ``None`` (counted)."""
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as f:
                record = json.load(f)
        except FileNotFoundError:
            with self._lock:
                self.misses += 1
            return None
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(
                f"unreadable result record {path!r}: {exc}"
            ) from exc
        if record.get("schema") != RESULT_SCHEMA:
            raise ConfigError(
                f"result record {path!r} has schema "
                f"{record.get('schema')!r}; this build reads "
                f"{RESULT_SCHEMA!r}"
            )
        if record.get("key") != key:
            raise ConfigError(
                f"result record {path!r} is keyed {record.get('key')!r}, "
                f"not {key!r}"
            )
        with self._lock:
            self.hits += 1
        return record

    def get_result(self, key: str) -> Optional[PipelineResult]:
        """Stored :class:`PipelineResult` for ``key``, if any."""
        record = self.get(key)
        if record is None:
            return None
        return result_from_dict(record["result"])

    def put(self, record: dict) -> str:
        """Atomically persist ``record``; returns the file path.

        Last writer wins, which is harmless: two writers of one key
        hold byte-identical records by construction.
        """
        for field in ("schema", "key", "spec", "result"):
            if field not in record:
                raise ConfigError(
                    f"result record is missing {field!r}: {record!r}"
                )
        path = self.path_for(record["key"])
        blob = record_bytes(record)
        fd, tmp = tempfile.mkstemp(
            prefix=".tmp-", suffix=".json", dir=self.root
        )
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(blob)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        with self._lock:
            self.puts += 1
        return path

    # -- maintenance -------------------------------------------------------

    def prune(
        self,
        max_bytes: Optional[int] = None,
        ttl: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Bound the store: drop expired and least-recent records.

        Two independent policies, applied in order:

        * ``ttl`` (seconds) -- delete records whose file modification
          time is older than ``ttl`` seconds ago;
        * ``max_bytes`` -- then delete oldest-first until the remaining
          records fit the budget.

        Records are evaluated results and can always be regenerated
        from their specs, so pruning is safe at any time; concurrent
        readers racing a deletion simply see a miss and re-evaluate.
        Returns a summary (entries/bytes before and after, deletions).

        With a ``graph_root``, the same two policies then bound the
        graph store on their own budget: a stored graph (its
        ``indptr``/``indices`` pair) and every temp file a killed
        writer left are entries, oldest first.  A pruned graph is
        regenerated by the next job that needs it.  The graph store's
        summary is the ``"graphs"`` entry.
        """
        if max_bytes is not None and max_bytes < 0:
            raise ConfigError(
                f"max_bytes must be >= 0, got {max_bytes}"
            )
        if ttl is not None and ttl < 0:
            raise ConfigError(f"ttl must be >= 0, got {ttl}")
        entries = []
        for key in self.keys():
            path = self.path_for(key)
            try:
                st = os.stat(path)
            except OSError:
                continue
            entries.append((st.st_mtime, st.st_size, (path,)))
        summary: Dict[str, Any] = _prune(entries, max_bytes, ttl)
        if self.graph_root is not None:
            summary["graphs"] = _prune(
                GraphStore(self.graph_root).entries(), max_bytes, ttl
            )
        return summary

    # -- observability -----------------------------------------------------

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "puts": self.puts,
                "entries": len(self),
            }


def _prune(
    entries: List[Tuple[float, int, Tuple[str, ...]]],
    max_bytes: Optional[int],
    ttl: Optional[float],
) -> Dict[str, int]:
    """Delete expired, then oldest ``(mtime, bytes, paths)`` entries."""
    entries = sorted(entries)  # oldest first
    total = sum(size for _, size, _ in entries)
    summary = {
        "entries_before": len(entries),
        "bytes_before": total,
        "deleted": 0,
        "deleted_bytes": 0,
    }

    def drop(entry) -> None:
        _, size, paths = entry
        for path in paths:
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass
            except OSError:
                return
        summary["deleted"] += 1
        summary["deleted_bytes"] += size

    kept = entries
    if ttl is not None:
        cutoff = time.time() - ttl
        expired = [e for e in kept if e[0] < cutoff]
        kept = [e for e in kept if e[0] >= cutoff]
        for entry in expired:
            drop(entry)
    if max_bytes is not None:
        live = sum(size for _, size, _ in kept)
        while kept and live > max_bytes:
            entry = kept.pop(0)
            live -= entry[1]
            drop(entry)
    summary["entries_after"] = summary["entries_before"] - summary["deleted"]
    summary["bytes_after"] = total - summary["deleted_bytes"]
    return summary
