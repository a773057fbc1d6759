"""GPU consumer model (Tesla T4 running the backend GNN layers).

Prices the two consumer-side phases of Fig 1: the CPU->GPU copy of the
aggregated feature tensor (step between 3 and 4) and the dense GNN
forward/backward (steps 4-5), using a roofline-style FLOP model over the
batch's block sizes.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.config import GPUParams, PCIeParams
from repro.core.accounting import SamplingWorkload
from repro.errors import ConfigError
from repro.storage.pcie import PCIeFabric

__all__ = ["GPUModel"]


class GPUModel:
    """Per-mini-batch GPU timing."""

    def __init__(
        self,
        gpu: GPUParams,
        pcie: PCIeParams,
        feature_dim: int,
        hidden_dim: int,
        num_classes: int,
        feature_dtype_bytes: int = 4,
    ):
        if min(feature_dim, hidden_dim, num_classes) <= 0:
            raise ConfigError("model dimensions must be positive")
        self.gpu = gpu
        self.fabric = PCIeFabric(pcie)
        self.feature_dim = feature_dim
        self.hidden_dim = hidden_dim
        self.num_classes = num_classes
        self.feature_dtype_bytes = feature_dtype_bytes
        self.batches_trained = 0

    def transfer_bytes(self, workload: SamplingWorkload) -> int:
        """Aggregated features + subgraph structure copied to the GPU."""
        features = (
            workload.num_input_nodes
            * self.feature_dim
            * self.feature_dtype_bytes
        )
        return features + workload.subgraph_bytes

    def transfer_time(self, workload: SamplingWorkload) -> float:
        return self.fabric.gpu_transfer_time(self.transfer_bytes(workload))

    def layer_shapes(self, n_layers: int) -> List[Tuple[int, int]]:
        """Weight shapes ``(in, out)``: ``n_layers`` SAGE convolutions,
        then the classification head.

        A convolution transforms ``[self || neighbor-agg]``, so its
        input is twice the previous layer's width.
        """
        shapes = []
        in_dim = self.feature_dim
        for _ in range(n_layers):
            shapes.append((2 * in_dim, self.hidden_dim))
            in_dim = self.hidden_dim
        shapes.append((self.hidden_dim, self.num_classes))
        return shapes

    def flops(self, block_sizes: Sequence[Tuple[int, int, int]]) -> float:
        """Forward+backward FLOPs of the SAGE convolutions + head."""
        total = 0.0
        shapes = self.layer_shapes(len(block_sizes))
        for (n_dst, _n_src, n_edges), (w_in, w_out) in zip(
            block_sizes, shapes
        ):
            # aggregation: one FMA per edge per input feature
            total += 2.0 * n_edges * (w_in // 2)
            # dense transform on [self || agg], fwd + bwd ~ 3x fwd
            total += 3 * 2.0 * n_dst * w_in * w_out
        if block_sizes:
            seeds = block_sizes[-1][0]
            head_in, head_out = shapes[-1]
            total += 3 * 2.0 * seeds * head_in * head_out
        return total

    def train_time(self, workload: SamplingWorkload) -> float:
        """GNN forward/backward/update time for one mini-batch."""
        self.batches_trained += 1
        compute = self.flops(workload.block_sizes) / self.gpu.effective_flops
        # HBM traffic: activations in/out roughly 4x the feature volume
        hbm_bytes = 4.0 * self.transfer_bytes(workload)
        memory = hbm_bytes / self.gpu.hbm_bandwidth
        return self.gpu.kernel_overhead_s + max(compute, memory)

    def consume_time(self, workload: SamplingWorkload) -> float:
        """Full consumer-side time: PCIe copy plus training."""
        return self.transfer_time(workload) + self.train_time(workload)
