"""Serializable run/system specifications.

A :class:`SystemSpec` declares *what system to build* (design point,
sizing knobs, hardware overrides); a :class:`RunSpec` adds *what to run
on it* (dataset, workload shape, pipeline mode).  Both round-trip
through plain dicts / JSON::

    spec = RunSpec(dataset="movielens",
                   system=SystemSpec(design="smartsage-hwsw"))
    blob = json.dumps(spec.to_dict())
    again = RunSpec.from_dict(json.loads(blob))
    assert again == spec

Validation raises :class:`repro.errors.ConfigError` with the offending
field and value, so a malformed JSON spec fails loudly before any
simulation starts.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.api.validation import (
    PIPELINE_COUNTS,
    TOPOLOGY_COUNTS,
    check_count,
    check_fabric,
    check_faults,
    check_fraction,
    check_partition,
    check_positive_real,
    check_rmat_draw,
)
from repro.config import HardwareParams, default_hardware
from repro.errors import ConfigError
from repro.graph.datasets import DATASETS, LARGE_SCALE, _VARIANTS
from repro.graph.generators import DEFAULT_RMAT_DRAW, RMAT_DRAWS

__all__ = ["SystemSpec", "RunSpec"]

_SAMPLERS = ("sage", "saint")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _from_dict(cls, data: Any) -> Any:
    """Construct ``cls`` from ``data``, rejecting unknown keys."""
    _require(
        isinstance(data, dict),
        f"{cls.__name__} spec must be a mapping, got {data!r}",
    )
    known = {f.name for f in dataclasses.fields(cls) if f.init}
    unknown = set(data) - known
    _require(
        not unknown,
        f"unknown {cls.__name__} field(s) {sorted(unknown)}; "
        f"known: {sorted(known)}",
    )
    return cls(**data)


@dataclass
class SystemSpec:
    """Declarative description of one design point to build.

    ``hardware`` holds serializable overrides of
    :class:`repro.config.HardwareParams`, keyed section -> field ->
    value, e.g. ``{"ssd": {"firmware_io_s": 12e-6}}``.
    """

    design: str = "ssd-mmap"
    #: neighbors sampled per hop (``None`` -> the hardware workload's)
    fanouts: Optional[Tuple[int, ...]] = None
    #: seeds per ISP sampling command (``None`` -> one command per
    #: mini-batch); read by the ISP designs
    granularity: Optional[int] = None
    #: OS page cache / user scratchpads as a fraction of the dataset
    #: (the paper's 192 GB host against multi-hundred-GB datasets)
    host_cache_frac: float = 0.15
    #: SSD-internal DRAM page buffer as a fraction of the edge list
    #: (1 GiB against a 2 TB device)
    page_buffer_frac: float = 0.003
    #: keep feature tables in host DRAM, as in the paper (only the edge
    #: list outgrows DRAM); ``False`` exercises the storage-backed
    #: feature paths.  GIDS designs always read features from storage
    features_in_dram: bool = True
    #: device groups for ``mode="sharded"`` (1 = single device)
    n_shards: int = 1
    #: host replicas for ``mode="distributed"`` (1 = single host)
    n_hosts: int = 1
    #: network fabric topology between hosts (see repro.net.fabric)
    fabric: str = "rack"
    #: graph partitioning method (see repro.graph.partition)
    partition: str = "edge-cut"
    #: GPU-HBM software feature-cache budget for GIDS designs (MiB;
    #: ignored by every host-mediated design)
    gpu_cache_mb: float = 64.0
    #: feature-cache tier stack, nearest first (see repro.cache);
    #: ``None`` keeps the legacy single-HBM-LRU stack byte-for-byte
    cache_tiers: Optional[Tuple[str, ...]] = None
    #: replacement policy for the stack (``None`` -> ``"lru"``)
    cache_policy: Optional[str] = None
    hardware: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: degraded-operation plan (see repro.faults); ``None`` = none
    faults: Optional["FaultPlan"] = None

    def __post_init__(self) -> None:
        if self.fanouts is not None:
            self.fanouts = tuple(self.fanouts)
        if self.cache_tiers is not None:
            self.cache_tiers = tuple(self.cache_tiers)
        self.hardware = {
            section: dict(fields)
            for section, fields in dict(self.hardware).items()
        }
        if isinstance(self.faults, dict):
            from repro.faults import FaultPlan

            self.faults = FaultPlan.from_dict(self.faults)

    def validate(self) -> "SystemSpec":
        from repro.api.registry import design_entry

        design_entry(self.design)  # raises ConfigError if unknown
        if self.fanouts is not None:
            _require(
                len(self.fanouts) > 0
                and all(
                    isinstance(f, numbers.Integral)
                    and not isinstance(f, bool)
                    and f > 0
                    for f in self.fanouts
                ),
                f"fanouts must be positive ints, got {self.fanouts!r}",
            )
        if self.granularity is not None:
            self.granularity = check_count("granularity", self.granularity)
        check_fraction("host_cache_frac", self.host_cache_frac)
        check_fraction("page_buffer_frac", self.page_buffer_frac)
        _require(
            isinstance(self.features_in_dram, bool),
            f"features_in_dram must be a bool, got {self.features_in_dram!r}",
        )
        for name, minimum in TOPOLOGY_COUNTS.items():
            setattr(
                self, name, check_count(name, getattr(self, name), minimum)
            )
        check_positive_real("gpu_cache_mb", self.gpu_cache_mb)
        from repro.cache.tiers import check_cache_config

        check_cache_config(self.cache_tiers, self.cache_policy)
        check_fabric(self.fabric)
        check_partition(self.partition)
        self.faults = check_faults(self.faults)
        self.build_hardware()  # validates section/field names
        return self

    # -- hardware overrides ------------------------------------------------

    def build_hardware(
        self, base: Optional[HardwareParams] = None
    ) -> HardwareParams:
        """Apply the spec's overrides to ``base`` (default hardware)."""
        hw = base or default_hardware()
        sections = {f.name for f in dataclasses.fields(hw)}
        for section, overrides in self.hardware.items():
            _require(
                section in sections,
                f"unknown hardware section {section!r}; "
                f"one of {sorted(sections)}",
            )
            _require(
                isinstance(overrides, dict),
                f"hardware[{section!r}] must be a mapping, "
                f"got {overrides!r}",
            )
            params = getattr(hw, section)
            known = {f.name for f in dataclasses.fields(params)}
            unknown = set(overrides) - known
            _require(
                not unknown,
                f"unknown hardware field(s) {sorted(unknown)} in section "
                f"{section!r}; known: {sorted(known)}",
            )
            fixed = {
                k: tuple(v) if isinstance(v, list) else v
                for k, v in overrides.items()
            }
            hw = hw.replace_in(section, **fixed)
        return hw

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        if out["fanouts"] is not None:
            out["fanouts"] = list(out["fanouts"])
        if out["faults"] is None:
            # absence and None are one state: pre-fault specs, their
            # run keys, and their store records stay byte-identical
            del out["faults"]
        if out["cache_tiers"] is None:
            # same rule as faults: pre-cache specs keep their run keys
            del out["cache_tiers"]
        else:
            out["cache_tiers"] = list(out["cache_tiers"])
        if out["cache_policy"] is None:
            del out["cache_policy"]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SystemSpec":
        return _from_dict(cls, data)


@dataclass
class RunSpec:
    """Declarative description of one end-to-end training run.

    Bundles the dataset instantiation (name, variant, edge budget,
    seed, RMAT draw contract), the workload shape (batch size, sampler,
    pool size), the system to build (:class:`SystemSpec`), and the
    pipeline execution parameters (mode, batches, workers,
    checkpointing).
    """

    # dataset
    dataset: str = "reddit"
    variant: str = LARGE_SCALE
    edge_budget: float = 2e6
    seed: int = 0
    #: RMAT draw contract of the graph (see
    #: :func:`repro.graph.generators.rmat_graph`).  A spec dict without
    #: it means ``"f64"``, the draws of every spec written before the
    #: field existed, so their run keys and records stay reproducible
    rmat_draw: str = DEFAULT_RMAT_DRAW
    # workload
    batch_size: int = 128
    n_workloads: int = 6
    warmup_batches: int = 2
    sampler: str = "sage"
    # system
    system: SystemSpec = field(default_factory=SystemSpec)
    # pipeline
    mode: str = "event"
    n_batches: int = 30
    n_workers: int = 4
    queue_depth: int = 4
    prefetch_depth: int = 2
    #: GPU-resident queue-pair depth (``mode="gids"``)
    qp_depth: int = 64
    checkpoint_every: int = 0
    checkpoint_bytes: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.system, dict):
            self.system = SystemSpec.from_dict(self.system)

    def validate(self) -> "RunSpec":
        _require(
            self.dataset in DATASETS,
            f"unknown dataset {self.dataset!r}; "
            f"one of {sorted(DATASETS)}",
        )
        _require(
            self.variant in _VARIANTS,
            f"variant must be one of {_VARIANTS}, got {self.variant!r}",
        )
        _require(
            isinstance(self.edge_budget, numbers.Real)
            and not isinstance(self.edge_budget, bool)
            and self.edge_budget > 0,
            f"edge_budget must be positive, got {self.edge_budget!r}",
        )
        check_rmat_draw(self.rmat_draw)
        self.batch_size = check_count("batch_size", self.batch_size)
        self.n_workloads = check_count("n_workloads", self.n_workloads)
        self.warmup_batches = check_count(
            "warmup_batches", self.warmup_batches, minimum=0
        )
        _require(
            self.warmup_batches < self.n_workloads,
            f"warmup_batches ({self.warmup_batches}) must leave at least "
            f"one of the {self.n_workloads} workloads for measurement",
        )
        _require(
            self.sampler in _SAMPLERS,
            f"sampler must be one of {_SAMPLERS}, got {self.sampler!r}",
        )
        from repro.pipeline.backends import backend_entry

        backend_entry(self.mode)  # raises ConfigError if unknown
        for name, minimum in PIPELINE_COUNTS.items():
            setattr(
                self, name, check_count(name, getattr(self, name), minimum)
            )
        self.system.validate()
        _require(
            self.system.faults is None
            or self.mode not in ("analytic", "distributed-analytic"),
            f"faults require an event-driven mode; "
            f"mode {self.mode!r} is closed-form",
        )
        return self

    # -- convenience -------------------------------------------------------

    def replace(self, **kwargs) -> "RunSpec":
        """Copy with top-level fields replaced (``system=`` included)."""
        return dataclasses.replace(self, **kwargs)

    def with_design(self, design: str) -> "RunSpec":
        """Copy targeting a different design point."""
        return self.replace(
            system=dataclasses.replace(self.system, design=design)
        )

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["system"] = self.system.to_dict()
        if out["rmat_draw"] == RMAT_DRAWS[0]:
            # absence and the oldest draw are one state: specs written
            # before the field keep their run keys
            del out["rmat_draw"]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunSpec":
        if isinstance(data, dict) and "rmat_draw" not in data:
            data = dict(data, rmat_draw=RMAT_DRAWS[0])
        return _from_dict(cls, data)

    def to_json(self, path: Optional[str] = None, indent: int = 2) -> str:
        blob = json.dumps(self.to_dict(), indent=indent)
        if path is not None:
            with open(path, "w", encoding="utf-8") as f:
                f.write(blob + "\n")
        return blob

    @classmethod
    def from_json(cls, path: str) -> "RunSpec":
        with open(path, "r", encoding="utf-8") as f:
            try:
                data = json.load(f)
            except json.JSONDecodeError as exc:
                raise ConfigError(
                    f"invalid JSON in run spec {path!r}: {exc}"
                ) from exc
        return cls.from_dict(data)
