"""Graph and dataset serialization (numpy ``.npz`` containers).

Materializing the larger scaled datasets takes seconds; persisting them
lets experiment sweeps and downstream users reload instantly and share
exact instances.  The format stores the CSR arrays plus enough metadata
to rebuild a :class:`~repro.graph.datasets.GraphDataset` around them.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph
from repro.graph.datasets import DATASETS, GraphDataset
from repro.graph.generators import RMAT_DRAWS

__all__ = ["save_graph", "load_graph", "save_dataset", "load_dataset_file"]

_FORMAT_VERSION = 1


def save_graph(graph: CSRGraph, path: Union[str, Path]) -> Path:
    """Write a CSR graph to ``path`` (``.npz``)."""
    path = Path(path)
    np.savez_compressed(
        path,
        version=np.int64(_FORMAT_VERSION),
        indptr=graph.indptr,
        indices=graph.indices,
    )
    return path if path.suffix == ".npz" else path.with_suffix(
        path.suffix + ".npz"
    )


def load_graph(path: Union[str, Path]) -> CSRGraph:
    """Read a CSR graph written by :func:`save_graph`."""
    with np.load(Path(path)) as data:
        if "indptr" not in data or "indices" not in data:
            raise GraphError(f"{path}: not a saved CSR graph")
        version = int(data.get("version", 0))
        if version > _FORMAT_VERSION:
            raise GraphError(
                f"{path}: format version {version} is newer than "
                f"supported ({_FORMAT_VERSION})"
            )
        return CSRGraph(data["indptr"], data["indices"])


def save_dataset(dataset: GraphDataset, path: Union[str, Path]) -> Path:
    """Write a materialized dataset instance (graph + identity)."""
    path = Path(path)
    meta = {
        "name": dataset.name,
        "variant": dataset.variant,
        "scale": dataset.scale,
        "seed": dataset.seed,
        "rmat_draw": dataset.rmat_draw,
    }
    np.savez_compressed(
        path,
        version=np.int64(_FORMAT_VERSION),
        indptr=dataset.graph.indptr,
        indices=dataset.graph.indices,
        meta=np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8
        ),
    )
    return path if path.suffix == ".npz" else path.with_suffix(
        path.suffix + ".npz"
    )


def load_dataset_file(path: Union[str, Path]) -> GraphDataset:
    """Read a dataset written by :func:`save_dataset`."""
    with np.load(Path(path)) as data:
        if "meta" not in data:
            raise GraphError(f"{path}: not a saved dataset")
        meta = json.loads(bytes(data["meta"]).decode("utf-8"))
        graph = CSRGraph(data["indptr"], data["indices"])
    name = meta["name"]
    if name not in DATASETS:
        raise GraphError(f"{path}: unknown dataset {name!r}")
    return GraphDataset(
        spec=DATASETS[name],
        variant=meta["variant"],
        scale=float(meta["scale"]),
        seed=int(meta["seed"]),
        graph=graph,
        # files written before the draw was versioned hold "f64" graphs
        rmat_draw=meta.get("rmat_draw", RMAT_DRAWS[0]),
    )
