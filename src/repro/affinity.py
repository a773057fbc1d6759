"""CPU placement for the package's worker processes and helper threads.

A new process or thread starts on its parent's CPU.  Where the kernel
does not balance load across CPUs (a cpuset with ``sched_load_balance``
off, as some container sandboxes set it), it never leaves that CPU, so
every worker queues on one CPU while the others idle.  A worker that
moves itself to a CPU of its own once, and then takes its whole allowed
set back, stays where it was put on such a kernel and stays free to
move on one that does balance.
"""

from __future__ import annotations

import os

__all__ = ["allowed_cpu_count", "place_on_cpu"]


def allowed_cpu_count() -> int:
    """How many CPUs the calling thread may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def place_on_cpu(ordinal: int) -> None:
    """Move the calling thread to the ``ordinal``-th allowed CPU.

    CPUs are taken in ascending order, round robin.  The thread then
    gets its whole allowed set back: the move is what a non-balancing
    kernel keeps.  A no-op where ``os.sched_setaffinity`` does not
    exist.
    """
    if not hasattr(os, "sched_setaffinity"):
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {sorted(allowed)[ordinal % len(allowed)]})
    os.sched_setaffinity(0, allowed)
