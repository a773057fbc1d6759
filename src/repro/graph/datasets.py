"""The five GNN datasets of Table I, as scaled synthetic instantiations.

The paper evaluates Reddit, Movielens, Amazon, OGBN-100M and Protein-PI,
each in an *in-memory* variant (the public dataset) and a *large-scale*
variant produced by Kronecker fractal expansion.  The real datasets are
gigabytes-to-terabytes and unavailable offline, so this registry records the
paper's published statistics and materializes scaled-down synthetic graphs
that preserve what drives the system behaviour:

* the **average degree** of each variant (it determines edge-list chunk
  sizes, hence blocks-per-target and I/O amplification), kept at the
  paper's true value even at small node counts (multi-edges are allowed,
  exactly as a subsampled multigraph would);
* the **relative node/edge proportions** across datasets;
* the **power-law degree shape** via RMAT/power-law generators;
* the **feature dimensionality** (it determines feature-lookup volume).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.graph.csr import CSRGraph
from repro.graph.generators import (
    DEFAULT_RMAT_DRAW,
    powerlaw_graph,
    rmat_graph,
    uniform_graph,
)

__all__ = [
    "DatasetSpec",
    "GraphDataset",
    "DATASETS",
    "DATASET_NAMES",
    "load_dataset",
    "table1_rows",
]

IN_MEMORY = "in-memory"
LARGE_SCALE = "large-scale"
_VARIANTS = (IN_MEMORY, LARGE_SCALE)


@dataclass(frozen=True)
class DatasetSpec:
    """Published statistics for one Table I dataset."""

    name: str
    inmem_nodes: float
    inmem_edges: float
    inmem_gb: float
    large_nodes: float
    large_edges: float
    large_gb: float
    feature_dim: int
    num_classes: int

    def paper_stats(self, variant: str) -> dict:
        _check_variant(variant)
        if variant == IN_MEMORY:
            return {
                "nodes": self.inmem_nodes,
                "edges": self.inmem_edges,
                "size_gb": self.inmem_gb,
            }
        return {
            "nodes": self.large_nodes,
            "edges": self.large_edges,
            "size_gb": self.large_gb,
        }

    def avg_degree(self, variant: str) -> float:
        stats = self.paper_stats(variant)
        return stats["edges"] / stats["nodes"]

    @property
    def node_multiplier(self) -> float:
        return self.large_nodes / self.inmem_nodes

    @property
    def edge_multiplier(self) -> float:
        return self.large_edges / self.inmem_edges

    def shape(
        self,
        variant: str = LARGE_SCALE,
        scale: float = 1e-4,
        min_nodes: int = 256,
    ) -> Tuple[int, int]:
        """``(num_nodes, num_edges)`` that :meth:`instantiate` makes."""
        _check_variant(variant)
        if scale <= 0:
            raise ConfigError("scale must be positive")
        stats = self.paper_stats(variant)
        num_nodes = max(min_nodes, int(round(stats["nodes"] * scale)))
        return num_nodes, int(round(num_nodes * self.avg_degree(variant)))

    def instantiate(
        self,
        variant: str = LARGE_SCALE,
        scale: float = 1e-4,
        seed: int = 0,
        generator: str = "rmat",
        min_nodes: int = 256,
        rmat_draw: str = DEFAULT_RMAT_DRAW,
    ) -> "GraphDataset":
        """Materialize a scaled synthetic instance of this dataset.

        ``scale`` multiplies the paper's node count; the paper's average
        degree is preserved exactly (as a multigraph when necessary), so
        per-target edge-list chunk sizes match the paper's at any scale.
        The node count is floored at ``min_nodes``, and the edge count
        follows the node count, so a small enough ``scale`` yields more
        edges than it asks for: ``min_nodes`` nodes at the true degree.
        ``rmat_draw`` names the ``rmat`` generator's draw contract (see
        :func:`~repro.graph.generators.rmat_graph`).
        """
        num_nodes, num_edges = self.shape(variant, scale, min_nodes)
        avg_degree = self.avg_degree(variant)
        rng = np.random.default_rng(
            _dataset_seed(self.name, variant, seed)
        )
        if generator == "rmat":
            graph = rmat_graph(num_nodes, num_edges, rng, rmat_draw=rmat_draw)
        elif generator == "powerlaw":
            graph = powerlaw_graph(num_nodes, avg_degree, rng)
        elif generator == "uniform":
            graph = uniform_graph(num_nodes, avg_degree, rng)
        else:
            raise ConfigError(f"unknown generator {generator!r}")
        return GraphDataset(
            spec=self,
            variant=variant,
            scale=scale,
            seed=seed,
            graph=graph,
            rmat_draw=rmat_draw,
        )


def _check_variant(variant: str) -> None:
    if variant not in _VARIANTS:
        raise ConfigError(
            f"variant must be one of {_VARIANTS}, got {variant!r}"
        )


def _dataset_seed(name: str, variant: str, seed: int) -> int:
    """Stable per-(dataset, variant, seed) RNG seed.

    Uses a content digest rather than ``hash()``, which is randomized
    per process for strings -- the same spec must materialize the same
    graph in every process so campaign artifacts are reproducible.
    """
    blob = f"{name}\x00{variant}\x00{seed}".encode()
    digest = hashlib.sha256(blob).digest()
    return int.from_bytes(digest[:4], "little") % (2 ** 31)


@dataclass
class GraphDataset:
    """A materialized (scaled) dataset instance."""

    spec: DatasetSpec
    variant: str
    scale: float
    seed: int
    graph: CSRGraph
    #: the RMAT draw contract the graph was made with
    rmat_draw: str = DEFAULT_RMAT_DRAW
    _features: Optional[np.ndarray] = field(default=None, repr=False)
    _labels: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def feature_dim(self) -> int:
        return self.spec.feature_dim

    @property
    def num_classes(self) -> int:
        return self.spec.num_classes

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    def edge_list_bytes(self, id_bytes: int = 8) -> int:
        """Size of the neighbor edge-list array on storage."""
        return self.graph.nbytes(id_bytes)

    def feature_table_bytes(self, dtype_bytes: int = 4) -> int:
        return self.num_nodes * self.feature_dim * dtype_bytes

    def total_bytes(self, id_bytes: int = 8, dtype_bytes: int = 4) -> int:
        return self.edge_list_bytes(id_bytes) + self.feature_table_bytes(
            dtype_bytes
        )

    # -- training data (materialized lazily) ------------------------------

    def labels(self) -> np.ndarray:
        """Synthetic class labels, deterministic per (name, seed)."""
        if self._labels is None:
            rng = np.random.default_rng(
                _dataset_seed(self.name, self.variant, self.seed) + 1
            )
            self._labels = rng.integers(
                0, self.num_classes, size=self.num_nodes
            ).astype(np.int64)
        return self._labels

    def features(self, noise: float = 1.0) -> np.ndarray:
        """Synthetic features correlated with the labels.

        Features are class centroids plus Gaussian noise, so a model that
        aggregates neighborhoods can denoise and beat a random-guess
        baseline -- enough signal to demonstrate that training learns.
        """
        if self._features is None:
            rng = np.random.default_rng(
                _dataset_seed(self.name, self.variant, self.seed) + 2
            )
            centroids = rng.normal(
                size=(self.num_classes, self.feature_dim)
            )
            labels = self.labels()
            feats = centroids[labels] + noise * rng.normal(
                size=(self.num_nodes, self.feature_dim)
            )
            self._features = feats.astype(np.float32)
        return self._features

    def train_test_split(self, train_frac: float = 0.8) -> tuple:
        rng = np.random.default_rng(
            _dataset_seed(self.name, self.variant, self.seed) + 3
        )
        perm = rng.permutation(self.num_nodes)
        cut = int(self.num_nodes * train_frac)
        return perm[:cut], perm[cut:]

    def summary(self) -> dict:
        return {
            "name": self.name,
            "variant": self.variant,
            "scale": self.scale,
            "nodes": self.num_nodes,
            "edges": self.num_edges,
            "avg_degree": self.graph.average_degree,
            "paper_avg_degree": self.spec.avg_degree(self.variant),
            "feature_dim": self.feature_dim,
            "edge_list_mb": self.edge_list_bytes() / 2 ** 20,
            "feature_table_mb": self.feature_table_bytes() / 2 ** 20,
        }

    def __repr__(self) -> str:
        return (
            f"GraphDataset({self.name}/{self.variant}, "
            f"nodes={self.num_nodes}, edges={self.num_edges})"
        )


K = 1e3
M = 1e6
B = 1e9

#: Table I of the paper, verbatim.
DATASETS: Dict[str, DatasetSpec] = {
    "reddit": DatasetSpec(
        name="reddit",
        inmem_nodes=233.0 * K, inmem_edges=114.6 * M, inmem_gb=0.8,
        large_nodes=37.3 * M, large_edges=53.9 * B, large_gb=402,
        feature_dim=602, num_classes=41,
    ),
    "movielens": DatasetSpec(
        name="movielens",
        inmem_nodes=5.5 * M, inmem_edges=6.0 * B, inmem_gb=45,
        large_nodes=22.2 * M, large_edges=59.2 * B, large_gb=442,
        feature_dim=1000, num_classes=20,
    ),
    "amazon": DatasetSpec(
        name="amazon",
        inmem_nodes=42.5 * M, inmem_edges=1.3 * B, inmem_gb=9.7,
        large_nodes=265.9 * M, large_edges=9.5 * B, large_gb=75,
        feature_dim=32, num_classes=47,
    ),
    "ogbn-100m": DatasetSpec(
        name="ogbn-100m",
        inmem_nodes=89.6 * M, inmem_edges=3.2 * B, inmem_gb=26,
        large_nodes=179.1 * M, large_edges=5.0 * B, large_gb=41,
        feature_dim=32, num_classes=172,
    ),
    "protein-pi": DatasetSpec(
        name="protein-pi",
        inmem_nodes=907.0 * K, inmem_edges=317.5 * M, inmem_gb=2.4,
        large_nodes=9.1 * M, large_edges=8.8 * B, large_gb=66,
        feature_dim=512, num_classes=121,
    ),
}

DATASET_NAMES: List[str] = list(DATASETS)


def load_dataset(
    name: str,
    variant: str = LARGE_SCALE,
    scale: float = 1e-4,
    seed: int = 0,
    generator: str = "rmat",
    rmat_draw: str = DEFAULT_RMAT_DRAW,
) -> GraphDataset:
    """Instantiate a Table I dataset by name (see :class:`DatasetSpec`)."""
    if name not in DATASETS:
        raise ConfigError(
            f"unknown dataset {name!r}; available: {DATASET_NAMES}"
        )
    return DATASETS[name].instantiate(
        variant=variant, scale=scale, seed=seed, generator=generator,
        rmat_draw=rmat_draw,
    )


def table1_rows() -> List[dict]:
    """Paper Table I as rows (for the table1 experiment/bench)."""
    rows = []
    for spec in DATASETS.values():
        rows.append(
            {
                "dataset": spec.name,
                "inmem_nodes": spec.inmem_nodes,
                "inmem_edges": spec.inmem_edges,
                "inmem_gb": spec.inmem_gb,
                "large_nodes": spec.large_nodes,
                "large_edges": spec.large_edges,
                "large_gb": spec.large_gb,
                "features": spec.feature_dim,
                "node_multiplier": spec.node_multiplier,
                "edge_multiplier": spec.edge_multiplier,
                "densified": spec.avg_degree(LARGE_SCALE)
                > spec.avg_degree(IN_MEMORY),
            }
        )
    return rows
