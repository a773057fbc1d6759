"""Pluggable experiment registry and structured run records.

Experiments (one per paper figure/table, plus extensions) register the
same way design points do (:mod:`repro.api.registry`): declaratively,
with metadata, instead of being hard-coded names in ``run_all.py``::

    @register_experiment(
        "fig14", figure="Figure 14", tags=("paper", "sampling"),
        collect=_collect, render=render,
    )
    def _plan(cfg):
        '''One sampling-cost unit per Table I dataset.'''
        return [partial(_run_dataset, name, cfg) for name in EVAL_DATASETS]

The registered protocol has four pieces:

* ``plan(cfg) -> list of units`` -- each unit is a zero-argument
  callable **or** a :class:`~repro.api.spec.RunSpec` (executed through a
  :class:`~repro.api.session.Session`).  Units are independent, so a
  campaign executor may run them on any worker thread in any order.
* ``collect(cfg, outputs) -> result`` -- merge the unit outputs (in plan
  order) into the experiment's result dict.  Optional; defaults to the
  single output (one unit) or the output list.  An experiment that
  summarizes others names them in ``reads``: their results, under the
  same config, come first in ``outputs`` (a campaign hands over the
  results of the ones it already runs, and runs the rest).
* ``records(result) -> list[RunRecord]`` -- flatten the result into
  serializable :class:`RunRecord` rows, the machine-readable artifact
  replacing per-module result objects.  Optional; defaults to
  :func:`standard_records`.
* ``render(result) -> str`` -- the existing paper-style text rendering.

The built-in experiments register on ``import repro.experiments``.  An
experiment's description defaults to the first line of its module's
docstring (``repro list`` prints it); names, clashes, removal and
lookup follow :class:`repro.registry.Registry`.
"""

from __future__ import annotations

import numbers
import sys
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ConfigError
from repro.registry import Registry

__all__ = [
    "RunRecord",
    "ExperimentEntry",
    "ExperimentResult",
    "register_experiment",
    "unregister_experiment",
    "available_experiments",
    "experiment_entry",
    "experiments_with_tag",
    "execute_unit",
    "run_experiment",
    "standard_records",
    "numeric_metrics",
]


# -- structured results ----------------------------------------------------


@dataclass
class RunRecord:
    """One serializable measurement row emitted by an experiment.

    ``metrics`` maps metric name to a finite float; ``params`` carries
    the axis values that distinguish this row from its siblings (worker
    count, granularity, ...); ``provenance`` is stamped by the executor
    (config digest, timings) and is not part of record identity.
    """

    experiment: str
    dataset: Optional[str] = None
    design: Optional[str] = None
    params: Dict[str, Any] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)
    provenance: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.experiment or not isinstance(self.experiment, str):
            raise ConfigError(
                f"RunRecord.experiment must be a non-empty string, "
                f"got {self.experiment!r}"
            )
        clean = {}
        for name, value in dict(self.metrics).items():
            if isinstance(value, bool) or not isinstance(
                value, numbers.Real
            ):
                raise ConfigError(
                    f"RunRecord metric {name!r} must be numeric, "
                    f"got {value!r}"
                )
            clean[name] = float(value)
        self.metrics = clean
        self.params = dict(self.params)
        self.provenance = dict(self.provenance)

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "dataset": self.dataset,
            "design": self.design,
            "params": dict(self.params),
            "metrics": dict(self.metrics),
            "provenance": dict(self.provenance),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        if not isinstance(data, dict):
            raise ConfigError(
                f"RunRecord must be a mapping, got {data!r}"
            )
        known = {
            "experiment", "dataset", "design", "params", "metrics",
            "provenance",
        }
        unknown = set(data) - known
        if unknown:
            raise ConfigError(
                f"unknown RunRecord field(s) {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        return cls(**data)


def numeric_metrics(mapping: Any) -> Dict[str, float]:
    """The scalar-numeric subset of ``mapping`` (str keys only)."""
    if not isinstance(mapping, dict):
        return {}
    return {
        k: float(v)
        for k, v in mapping.items()
        if isinstance(k, str)
        and isinstance(v, numbers.Real)
        and not isinstance(v, bool)
    }


def standard_records(
    experiment: str,
    result: Any,
    per_dataset_key: str = "per_dataset",
) -> List[RunRecord]:
    """Default result-dict flattening: per-dataset rows + a summary row.

    Picks the numeric scalars out of ``result[per_dataset_key][name]``
    for each dataset and out of the result's top level (the aggregate
    metrics).  Experiments whose results are keyed by other axes supply
    their own ``records`` hook instead.
    """
    records: List[RunRecord] = []
    if isinstance(result, dict):
        for name, values in (result.get(per_dataset_key) or {}).items():
            metrics = numeric_metrics(values)
            if metrics:
                records.append(
                    RunRecord(
                        experiment=experiment,
                        dataset=str(name),
                        metrics=metrics,
                    )
                )
        summary = numeric_metrics(result)
        if summary:
            records.append(
                RunRecord(experiment=experiment, metrics=summary)
            )
    return records


# -- registry --------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentEntry:
    """One registered experiment."""

    name: str
    plan: Callable
    collect: Optional[Callable] = None
    records: Optional[Callable] = None
    render: Optional[Callable] = None
    figure: str = ""
    tags: Tuple[str, ...] = ()
    description: str = ""
    #: experiments whose results lead ``collect``'s outputs
    reads: Tuple[str, ...] = ()

    def collect_outputs(self, cfg: Any, outputs: Sequence[Any]) -> Any:
        """Merge unit outputs (plan order) into the result."""
        if self.collect is not None:
            return self.collect(cfg, list(outputs))
        if len(outputs) == 1:
            return outputs[0]
        return list(outputs)

    def extract_records(self, result: Any) -> List[RunRecord]:
        """Flatten ``result`` into :class:`RunRecord` rows."""
        if self.records is not None:
            out = list(self.records(result))
        else:
            out = standard_records(self.name, result)
        for record in out:
            if not isinstance(record, RunRecord):
                raise ConfigError(
                    f"experiment {self.name!r} records hook must yield "
                    f"RunRecord, got {type(record).__name__}"
                )
        return out

    def render_result(self, result: Any) -> Optional[str]:
        return self.render(result) if self.render is not None else None


def _module_doc(fn: Callable) -> Optional[str]:
    module = sys.modules.get(fn.__module__)
    return getattr(module, "__doc__", None) or fn.__doc__


_EXPERIMENTS = Registry(
    "experiment", ExperimentEntry, ("repro.experiments",), doc=_module_doc
)


def register_experiment(
    name: str,
    *,
    figure: str = "",
    tags: Sequence[str] = (),
    description: str = "",
    collect: Optional[Callable] = None,
    records: Optional[Callable] = None,
    render: Optional[Callable] = None,
    reads: Sequence[str] = (),
    replace: bool = False,
) -> Callable:
    """Decorator registering ``fn`` as the *plan* for experiment ``name``."""
    return _EXPERIMENTS.register(
        name, description=description, replace=replace,
        collect=collect, records=records, render=render, figure=figure,
        tags=tuple(tags), reads=tuple(reads),
    )


unregister_experiment = _EXPERIMENTS.unregister
available_experiments = _EXPERIMENTS.names
experiment_entry = _EXPERIMENTS.entry
experiments_with_tag = _EXPERIMENTS.with_tag


# -- execution -------------------------------------------------------------


def execute_unit(unit: Any) -> Any:
    """Run one planned unit: a zero-arg callable or a ``RunSpec``."""
    from repro.api.spec import RunSpec

    if isinstance(unit, RunSpec):
        from repro.api.session import Session

        return Session(unit).run()
    if callable(unit):
        return unit()
    raise ConfigError(
        f"experiment unit must be a RunSpec or callable, got {unit!r}"
    )


@dataclass
class ExperimentResult:
    """Everything one experiment produced."""

    name: str
    result: Any
    records: List[RunRecord]
    rendered: Optional[str]
    elapsed_s: float


def run_experiment(
    name_or_entry: Any,
    cfg: Any = None,
    *,
    render: bool = True,
) -> ExperimentResult:
    """Plan, execute (serially), collect, and record one experiment.

    Every experiment in ``reads`` runs first, under the same ``cfg``.
    """
    entry = (
        name_or_entry
        if isinstance(name_or_entry, ExperimentEntry)
        else experiment_entry(name_or_entry)
    )
    if cfg is None:
        from repro.experiments.common import ExperimentConfig

        cfg = ExperimentConfig()
    start = time.time()
    outputs = [
        run_experiment(name, cfg, render=False).result
        for name in entry.reads
    ]
    outputs += [execute_unit(u) for u in entry.plan(cfg)]
    result = entry.collect_outputs(cfg, outputs)
    records = entry.extract_records(result)
    rendered = entry.render_result(result) if render else None
    return ExperimentResult(
        name=entry.name,
        result=result,
        records=records,
        rendered=rendered,
        elapsed_s=time.time() - start,
    )
