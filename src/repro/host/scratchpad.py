"""SmartSAGE's user-space scratchpad buffer.

With direct I/O the OS page cache is bypassed entirely, so the SmartSAGE
runtime allocates its own user-space buffer and "manually orchestrates
high locality data movements" (Section IV-C).  We model it as an LRU over
application-level keys -- node IDs rather than file pages -- because the
runtime knows exactly which node's edge list or feature row it holds.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.memory.lru import ExactLRU

__all__ = ["Scratchpad"]


class Scratchpad(ExactLRU):
    """LRU of application objects with a byte-budgeted capacity."""

    def __init__(self, capacity_bytes: int, avg_entry_bytes: int):
        if avg_entry_bytes <= 0:
            raise ConfigError("avg_entry_bytes must be positive")
        super().__init__(max(1, capacity_bytes // avg_entry_bytes))
