"""The GraphSAGE model: stacked SAGE convolutions plus a classifier.

``forward`` consumes a :class:`~repro.gnn.subgraph.MiniBatch`: raw input
features enter at the widest block and each convolution narrows the
frontier until only the seed nodes remain (depth-k convolution of Fig 2
step 4).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.errors import ConfigError
from repro.gnn.attention import GATConv
from repro.gnn.layers import Linear, Parameter, PoolingSAGEConv, SAGEConv
from repro.gnn.subgraph import MiniBatch

__all__ = ["GraphSAGE", "CONV_TYPES"]

CONV_TYPES = ("mean", "pool", "gat")


class GraphSAGE:
    """k-layer GraphSAGE with a linear classification head.

    ``conv_type`` selects the aggregator: ``mean`` (the paper's default),
    ``pool`` (Fig 2's pooling function), or ``gat`` (attention -- the
    intro's "convolutions to attentions" trend).
    """

    def __init__(
        self,
        in_dim: int,
        hidden_dim: int,
        num_classes: int,
        num_layers: int = 2,
        rng: Optional[np.random.Generator] = None,
        conv_type: str = "mean",
    ):
        if num_layers < 1:
            raise ConfigError("need at least one layer")
        if conv_type not in CONV_TYPES:
            raise ConfigError(
                f"conv_type must be one of {CONV_TYPES}"
            )
        rng = rng or np.random.default_rng(0)
        self.num_layers = num_layers
        self.conv_type = conv_type
        self.in_dim = in_dim
        self.hidden_dim = hidden_dim
        self.convs: List = []
        dim = in_dim
        for i in range(num_layers):
            if conv_type == "mean":
                conv = SAGEConv(dim, hidden_dim, rng, name=f"conv{i}")
            elif conv_type == "pool":
                conv = PoolingSAGEConv(
                    dim, hidden_dim, rng, name=f"conv{i}"
                )
            else:
                conv = GATConv(dim, hidden_dim, rng, name=f"conv{i}")
            self.convs.append(conv)
            dim = hidden_dim
        self.head = Linear(hidden_dim, num_classes, rng, name="head")

    def forward(self, batch: MiniBatch, features: np.ndarray) -> np.ndarray:
        """Logits for the batch's seed nodes.

        ``features`` are the raw rows for ``batch.input_nodes`` in order.
        """
        if len(batch.blocks) != self.num_layers:
            raise ConfigError(
                f"batch has {len(batch.blocks)} blocks; model expects "
                f"{self.num_layers}"
            )
        if features.shape[0] != batch.input_nodes.size:
            raise ConfigError("features do not match batch input nodes")
        h = np.asarray(features, dtype=np.float64)
        for conv, block in zip(self.convs, batch.blocks):
            if h.shape[0] != block.num_src:
                raise ConfigError("representation/block size mismatch")
            h = conv.forward(block, h)
        return self.head.forward(h)

    def backward(self, grad_logits: np.ndarray) -> None:
        """Backprop through the head and every convolution."""
        grad = self.head.backward(grad_logits)
        for conv in reversed(self.convs):
            grad = conv.backward(grad)

    def parameters(self) -> List[Parameter]:
        params: List[Parameter] = []
        for conv in self.convs:
            params.extend(conv.parameters())
        params.extend(self.head.parameters())
        return params

    def parameter_count(self) -> int:
        return sum(int(np.prod(p.shape)) for p in self.parameters())
