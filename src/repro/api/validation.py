"""Small shared validators and count tables used by the spec layer."""

from __future__ import annotations

import math
import numbers
import operator

from repro.errors import ConfigError

__all__ = [
    "PIPELINE_COUNTS",
    "TOPOLOGY_COUNTS",
    "check_fraction",
    "check_count",
    "check_positive_real",
    "check_fabric",
    "check_partition",
    "check_faults",
    "check_rmat_draw",
]

#: pipeline counts -> least accepted value; ``RunSpec.validate`` checks
#: exactly these and stores each back as an ``int``
PIPELINE_COUNTS = {
    "n_batches": 1,
    "n_workers": 1,
    "queue_depth": 1,
    "prefetch_depth": 1,
    "qp_depth": 1,
    "checkpoint_every": 0,
    "checkpoint_bytes": 0,
}
#: device-group counts -> least accepted value; ``SystemSpec.validate``
#: checks exactly these and stores each back as an ``int``
TOPOLOGY_COUNTS = {"n_shards": 1, "n_hosts": 1}


def check_count(name: str, value, minimum: int = 1) -> int:
    """Validate ``value`` as an integral count ``>= minimum``; return it
    as a plain ``int`` (numpy integers pass, bools and floats do not).
    A bad shard/host count must fail here, not as an IndexError deep in
    graph partitioning."""
    try:
        if isinstance(value, bool):
            raise TypeError
        as_int = operator.index(value)
    except TypeError:
        as_int = None
    if as_int is None or as_int < minimum:
        raise ConfigError(
            f"{name} must be an int >= {minimum}, got {value!r}"
        )
    return as_int


def check_fraction(name: str, value) -> float:
    """Validate ``value`` as a fraction in [0, 1]; return it as float."""
    ok = (
        not isinstance(value, bool)
        and isinstance(value, numbers.Real)
        and not math.isnan(float(value))
        and 0.0 <= float(value) <= 1.0
    )
    if not ok:
        raise ConfigError(
            f"{name} must be a fraction in [0, 1], got {value!r}"
        )
    return float(value)


def check_positive_real(name: str, value) -> float:
    """Validate ``value`` as a finite positive real; return it as float."""
    ok = (
        not isinstance(value, bool)
        and isinstance(value, numbers.Real)
        and math.isfinite(float(value))
        and float(value) > 0.0
    )
    if not ok:
        raise ConfigError(f"{name} must be positive, got {value!r}")
    return float(value)


def check_fabric(value) -> str:
    """Validate a network fabric topology name (see :mod:`repro.net`)."""
    from repro.config import FABRIC_TOPOLOGIES

    if value not in FABRIC_TOPOLOGIES:
        raise ConfigError(
            f"fabric must be one of {FABRIC_TOPOLOGIES}, got {value!r}"
        )
    return value


def check_partition(value) -> str:
    """Validate a graph partitioning method
    (see :mod:`repro.graph.partition`)."""
    from repro.graph.partition import PARTITION_METHODS

    if value not in PARTITION_METHODS:
        raise ConfigError(
            f"partition must be one of {PARTITION_METHODS}, got {value!r}"
        )
    return value


def check_faults(value):
    """Validate an optional fault plan; a mapping becomes a
    :class:`~repro.faults.FaultPlan`.  Returns the plan (or ``None``)."""
    if value is None:
        return None
    from repro.faults import FaultPlan

    if isinstance(value, dict):
        value = FaultPlan.from_dict(value)
    if not isinstance(value, FaultPlan):
        raise ConfigError(
            f"faults must be a FaultPlan or mapping, got {value!r}"
        )
    value.validate()
    return value


def check_rmat_draw(value) -> str:
    """Validate an RMAT draw contract name
    (see :func:`repro.graph.generators.rmat_graph`)."""
    from repro.graph.generators import RMAT_DRAWS

    if not isinstance(value, str) or value not in RMAT_DRAWS:
        raise ConfigError(
            f"rmat_draw must be one of {RMAT_DRAWS}, got {value!r}"
        )
    return value
