"""The in-storage subgraph generator (Fig 11's second firmware component).

Given a sampling workload, the generator plans the device-side work: which
flash pages the target nodes' edge lists occupy, which of those are
already resident in the SSD's DRAM page buffer (hub nodes get re-read
across batches), how much embedded-core time the fine-grained sampling
gathers take, and how many bytes the dense result DMA carries back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.core.accounting import SamplingWorkload, read_only, workload_plan
from repro.errors import ConfigError
from repro.graph.layout import EdgeListLayout
from repro.storage.ssd import SSDevice

__all__ = ["ISPBatchPlan", "SubgraphGenerator"]


@dataclass(frozen=True)
class ISPBatchPlan:
    """Device-side work amounts for one subgraph-generation command."""

    n_targets: int
    n_samples: int
    pages_touched: int       # page references from all edge-list extents
    pages_from_flash: int    # after SSD DRAM page-buffer hits
    core_seconds: float      # embedded-core time for the ISP operator
    return_bytes: int        # dense subgraph DMA-ed back to the host

    @property
    def buffer_hit_rate(self) -> float:
        if self.pages_touched == 0:
            return 0.0
        return 1.0 - self.pages_from_flash / self.pages_touched


class SubgraphGenerator:
    """Plans ISP work; owns no timing policy (engines time the plan)."""

    def __init__(self, ssd: SSDevice, layout: EdgeListLayout):
        self.ssd = ssd
        self.layout = layout
        self.page_bytes = ssd.nand.page_bytes
        self.batches_planned = 0

    def plan(self, workload: SamplingWorkload) -> ISPBatchPlan:
        """Plan the device-side work of a whole-batch command."""
        return self.plan_span(workload, 0.0, 1.0)

    def plan_span(
        self,
        workload: SamplingWorkload,
        start_frac: float,
        end_frac: float,
    ) -> ISPBatchPlan:
        """Plan one command covering the [start, end) slice of the batch.

        Coalescing granularities below the batch size split the batch into
        several commands; each sees only its own slice of the target
        stream, so cross-slice page dedup is lost -- one of the reasons
        fine granularity hurts in Fig 15.  The slice's page set is
        planned once per workload and layout (:meth:`span_pages`); the
        page-buffer pass and the core accounting run on every call.
        """
        if not 0.0 <= start_frac < end_frac <= 1.0:
            raise ConfigError("need 0 <= start < end <= 1")
        fraction = end_frac - start_frac
        n_targets, n_refs, unique_pages = self.span_pages(
            workload, start_frac, end_frac
        )
        # Across commands the device page buffer (stateful) catches
        # re-referenced hub pages.
        from_flash = self.ssd.page_buffer.miss_count(unique_pages)
        n_samples = int(round(workload.total_samples * fraction))
        core_s = self.ssd.cores.isp_sampling_cost(
            n_targets=n_targets,
            n_samples=n_samples,
            n_pages=n_refs,
        )
        self.batches_planned += 1
        return ISPBatchPlan(
            n_targets=n_targets,
            n_samples=n_samples,
            pages_touched=n_refs,
            pages_from_flash=from_flash,
            core_seconds=core_s,
            return_bytes=int(round(workload.subgraph_bytes * fraction)),
        )

    def span_pages(
        self,
        workload: SamplingWorkload,
        start_frac: float,
        end_frac: float,
    ) -> Tuple[int, int, np.ndarray]:
        """``(targets, page references, distinct pages)`` of one command.

        A pure function of the workload, the slice and the edge-list
        layout, built once per process by
        :func:`~repro.core.accounting.workload_plan`; the distinct-page
        array is read-only.
        """
        layout = self.layout
        key = ("isp-pages", layout.id_bytes, layout.base_byte,
               self.page_bytes, start_frac, end_frac)

        def build():
            targets = workload.all_targets()
            lo = int(np.floor(targets.size * start_frac))
            hi = max(lo + 1, int(np.floor(targets.size * end_frac)))
            targets = targets[lo:hi]
            page_ids = layout.flash_page_ids(targets, self.page_bytes)
            # Dedup within the command: one flash read serves every
            # reference to the same page.
            return (int(targets.size), int(page_ids.size),
                    read_only(np.unique(page_ids)))

        return workload_plan(layout.graph, workload, key, build)
