"""Chaos harness: deterministic failure drills for the service stack.

The fault-injection layer (:mod:`repro.faults`) degrades the *simulated*
machine; this module degrades the *real* one -- the serving process, its
worker pool, and its on-disk state -- to prove the recovery invariants
the service design claims:

* **worker kills** (SIGKILL mid-simulation) surface as
  ``BrokenProcessPool``; the pool is rebuilt and jobs retry within
  ``max_retries``, so a storm of kills delays completion but never
  loses or duplicates a result;
* **journal tail truncation** (a crash mid-append) loses at most the
  torn tail lines; replay reconstructs every fsynced transition and
  re-queues whatever was ``running``;
* **spool drops** (a submitter dying before the atomic rename lands)
  simply never happened -- remaining submissions are unaffected.

The proof obligation is *exactly-once store semantics*:
:func:`verify_exactly_once` re-evaluates every spec inline and asserts
the surviving store records are byte-identical to a clean evaluation --
one record per key, no torn or duplicated writes, regardless of how
many times chaos forced a retry.

All randomness flows through one seeded generator
(:class:`ChaosMonkey`), so a chaos run is reproducible: same seed, same
victims, same verdict.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ConfigError
from repro.service.store import ResultStore, record_bytes, run_key

__all__ = ["ChaosMonkey", "chaos_drain", "verify_exactly_once"]


class ChaosMonkey:
    """Seeded source of targeted failures (the only RNG in a drill).

    Each method performs one failure action against live service state
    and records it in :attr:`actions`; :meth:`stats` summarizes the
    damage done so tests can assert chaos actually happened.
    """

    def __init__(self, seed: int = 0) -> None:
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ConfigError(f"chaos seed must be an int, got {seed!r}")
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.actions: List[Dict[str, object]] = []

    # -- worker kills ------------------------------------------------------

    def kill_worker(self, service) -> Optional[int]:
        """SIGKILL one random live pool worker; returns its pid.

        Only meaningful for ``executor="process"``; a thread/inline
        service has no separately killable workers (returns ``None``).
        """
        pool = getattr(service, "_pool", None)
        procs = getattr(pool, "_processes", None)
        if not procs:
            return None
        pids = sorted(procs.keys())
        pid = int(pids[int(self.rng.integers(0, len(pids)))])
        try:
            os.kill(pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            return None
        self.actions.append({"action": "kill_worker", "pid": pid})
        return pid

    # -- journal damage ----------------------------------------------------

    def truncate_journal(
        self,
        journal_path: str,
        lines: int = 1,
        tear: bool = True,
    ) -> int:
        """Crash-model the journal: drop tail lines, optionally leave a
        torn (half-written) final line.  Returns lines removed.

        The file must not be open for append by a live queue -- this
        models damage discovered at the *next* startup, the way a real
        crash presents it.
        """
        if lines < 0:
            raise ConfigError(f"lines must be >= 0, got {lines}")
        try:
            with open(journal_path, "r", encoding="utf-8") as f:
                content = f.readlines()
        except FileNotFoundError:
            return 0
        keep = content[: max(0, len(content) - lines)] if lines else content
        removed = len(content) - len(keep)
        with open(journal_path, "w", encoding="utf-8") as f:
            f.writelines(keep)
            if tear:
                # a torn append: valid JSON prefix, no closing brace,
                # no newline -- exactly what a mid-write crash leaves
                f.write('{"e": "done", "job": "job-')
            f.flush()
            os.fsync(f.fileno())
        self.actions.append(
            {
                "action": "truncate_journal",
                "lines_removed": removed,
                "torn_tail": bool(tear),
            }
        )
        return removed

    # -- spool damage ------------------------------------------------------

    def drop_spool_entry(self, spool_root: str) -> Optional[str]:
        """Delete one random pending spool submission; returns its name."""
        try:
            names = sorted(
                n for n in os.listdir(spool_root)
                if n.endswith(".json") and not n.startswith(".")
            )
        except OSError:
            return None
        if not names:
            return None
        name = names[int(self.rng.integers(0, len(names)))]
        try:
            os.unlink(os.path.join(spool_root, name))
        except OSError:
            return None
        self.actions.append({"action": "drop_spool", "name": name})
        return name

    # -- observability -----------------------------------------------------

    def stats(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for entry in self.actions:
            key = str(entry["action"])
            out[key] = out.get(key, 0) + 1
        return out


def chaos_drain(
    service,
    monkey: ChaosMonkey,
    kills: int = 2,
    kill_min_interval_s: float = 0.05,
    max_wall_s: float = 120.0,
):
    """Drain ``service`` while killing up to ``kills`` in-flight workers.

    Runs the service's own serving loop, so recovery flows through the
    production crash handler, with a hook between dispatch and harvest
    that sends a SIGKILL whenever work is in flight and the previous
    kill is at least ``kill_min_interval_s`` old (back-to-back kills
    would land on a pool that is already broken).  Returns the
    :class:`~repro.service.server.ServiceReport` of the drain.
    """
    if kills < 0:
        raise ConfigError(f"kills must be >= 0, got {kills}")
    killed = 0
    last_kill = -float("inf")

    def kill_in_flight() -> None:
        nonlocal killed, last_kill
        if (
            killed < kills
            and service._running
            and time.monotonic() - last_kill >= kill_min_interval_s
        ):
            if monkey.kill_worker(service) is not None:
                killed += 1
                last_kill = time.monotonic()

    return service._serve(
        stop_when_idle=True, max_wall_s=max_wall_s, between=kill_in_flight
    )


def verify_exactly_once(store_root: str, specs) -> Dict[str, object]:
    """Assert the store holds exactly one clean record per spec.

    For every spec: the record file exists, parses, and its on-disk
    bytes equal a fresh inline evaluation's canonical encoding -- the
    byte-identity contract that makes retries idempotent.  Raises
    ``AssertionError`` naming the first divergent key; returns a
    summary (``verified`` count and the keys checked) on success.
    """
    from repro.api.spec import RunSpec
    from repro.service.worker import evaluate_spec_dict
    from repro.service.store import make_record

    store = ResultStore(store_root)
    keys: List[str] = []
    for spec in specs:
        if isinstance(spec, dict):
            spec = RunSpec.from_dict(spec)
        key = run_key(spec)
        keys.append(key)
        path = store.path_for(key)
        assert os.path.exists(path), f"missing store record for {key}"
        with open(path, "rb") as f:
            on_disk = f.read()
        spec_dict = spec.to_dict()
        clean = record_bytes(
            make_record(key, spec_dict, evaluate_spec_dict(spec_dict))
        )
        assert on_disk == clean, (
            f"store record for {key} diverges from a clean evaluation "
            f"({len(on_disk)} vs {len(clean)} bytes)"
        )
    # no duplicates possible by construction (one file per key), but a
    # chaos run must not leave temp droppings behind either
    stray = [
        n for n in os.listdir(store_root) if n.startswith(".tmp-")
    ]
    assert not stray, f"leftover temp files in store: {stray}"
    return {"verified": len(keys), "keys": keys}
