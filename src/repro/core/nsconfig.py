"""NSconfig: the neighbor-sampling configuration payload (Fig 11 step 1).

The SmartSAGE driver stores all parameters of a subgraph-generation
request -- target node logical addresses, extents, fanouts, RNG seed --
in host memory as one ``NSconfig`` blob; the SSD firmware DMAs it down
with a single transaction.  This module builds the blob's logical content
from a workload + layout, and knows its wire size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ConfigError
from repro.graph.layout import EdgeListLayout
from repro.host.driver import nsconfig_wire_bytes

__all__ = ["NSConfig"]


@dataclass
class NSConfig:
    """One subgraph-generation request's parameters."""

    target_nodes: np.ndarray     # seed node IDs for this command
    target_lbas: np.ndarray      # first LBA of each target's edge list
    target_lba_counts: np.ndarray
    fanouts: tuple               # per-hop sampling sizes
    rng_seed: int

    def __post_init__(self):
        n = self.target_nodes.size
        if self.target_lbas.size != n or self.target_lba_counts.size != n:
            raise ConfigError("NSconfig arrays must align")
        if not self.fanouts or any(f <= 0 for f in self.fanouts):
            raise ConfigError("NSconfig needs positive fanouts")

    @classmethod
    def build(
        cls,
        target_nodes: np.ndarray,
        layout: EdgeListLayout,
        fanouts: Sequence[int],
        rng_seed: int = 0,
    ) -> "NSConfig":
        target_nodes = np.asarray(target_nodes, dtype=np.int64)
        if target_nodes.size == 0:
            raise ConfigError("NSconfig needs at least one target")
        first, counts = layout.node_blocks(target_nodes)
        return cls(
            target_nodes=target_nodes,
            target_lbas=first,
            target_lba_counts=counts,
            fanouts=tuple(int(f) for f in fanouts),
            rng_seed=rng_seed,
        )

    @property
    def num_targets(self) -> int:
        return int(self.target_nodes.size)

    @property
    def wire_bytes(self) -> int:
        """Size of the CPU->SSD DMA payload."""
        return nsconfig_wire_bytes(self.num_targets)

    def split(self, granularity: int):
        """Split into per-command configs of ``granularity`` targets
        (Fig 15's coalescing sweep)."""
        if granularity <= 0:
            raise ConfigError("granularity must be positive")
        for start in range(0, self.num_targets, granularity):
            end = start + granularity
            yield NSConfig(
                target_nodes=self.target_nodes[start:end],
                target_lbas=self.target_lbas[start:end],
                target_lba_counts=self.target_lba_counts[start:end],
                fanouts=self.fanouts,
                rng_seed=self.rng_seed + start,
            )
