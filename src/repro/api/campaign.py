"""The ``Campaign`` executor: many experiments, one shared substrate.

A campaign takes a set of registered experiments (or ad-hoc
``run``/``render`` modules), plans each one into independent units,
executes every unit through one thread pool (``jobs`` wide) over a
shared :class:`~repro.api.cache.ContentCache` -- so each scaled dataset
and workload pool is materialized exactly once for the whole batch --
and collects per-experiment results with failure isolation: one
experiment blowing up is recorded (with its traceback) without taking
the rest of the suite down.

Every unit runs on its own through :func:`_execute_unit`; a campaign
never coalesces units.  Batched analytic evaluation lives in
:meth:`repro.api.session.Session.sweep` and in the service's dispatch
(:mod:`repro.service.server`), the two places that see many analytic
specs at once.  With a ``store`` (a
:class:`~repro.service.store.ResultStore` or its directory), spec
units are content-addressed: a hit is served from its record, and a
miss is evaluated by the service worker
(:func:`repro.service.worker.evaluate_and_store`), so a resumed
campaign and the service read and write one record format.

Artifacts (``out_dir``): per-experiment ``<name>.json`` (structured
:class:`~repro.api.experiment.RunRecord` rows), ``<name>.csv`` (long
format), ``<name>.txt`` (paper-style rendering), and a campaign
``manifest.json`` indexing all of it.

Declarative entry point: a campaign JSON file (:class:`CampaignSpec`) ::

    {
      "experiments": ["table1", {"name": "fig14",
                                 "config": {"edge_budget": 3e5}}],
      "config": {"batch_size": 48, "n_workloads": 6},
      "jobs": 4,
      "out": "artifacts/"
    }

run with ``python -m repro campaign campaign.json``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
import traceback as traceback_module
from concurrent.futures import Future, ThreadPoolExecutor
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

from repro.api import artifacts as artifacts_module
from repro.api.cache import ContentCache, activated, spec_key
from repro.api.experiment import (
    ExperimentEntry,
    RunRecord,
    available_experiments,
    execute_unit,
    experiment_entry,
)
from repro.api.validation import check_count
from repro.errors import ConfigError, ReproError

__all__ = [
    "Campaign",
    "CampaignResult",
    "CampaignSpec",
    "ExperimentOutcome",
    "cancel_pending",
    "run_campaign_file",
]


def cancel_pending(futures) -> int:
    """Cancel every not-yet-started future; returns how many took.

    The shared graceful-drain primitive: :meth:`Campaign.run` calls it
    when a unit raises a fatal (non-``Exception``) error or the user
    interrupts, and :meth:`repro.service.server.CampaignService.shutdown`
    calls it when the serving loop stops.  Futures already running
    cannot be cancelled and are left to finish.
    """
    return sum(1 for future in futures if future.cancel())


@dataclass
class ExperimentOutcome:
    """What one experiment produced inside a campaign.

    ``elapsed_s`` is the experiment's wall-clock span (plan start to
    last unit / collect finish); ``work_s`` is the summed compute time
    of its units, which exceeds ``elapsed_s`` when units ran
    concurrently.
    """

    name: str
    figure: str = ""
    tags: Tuple[str, ...] = ()
    status: str = "ok"
    elapsed_s: float = 0.0
    work_s: float = 0.0
    error: Optional[str] = None
    traceback: Optional[str] = None
    result: Any = None
    records: List[RunRecord] = field(default_factory=list)
    rendered: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def summary(self) -> dict:
        """The manifest entry for this outcome (no bulky payloads)."""
        return {
            "status": self.status,
            "figure": self.figure,
            "tags": list(self.tags),
            "elapsed_s": round(self.elapsed_s, 3),
            "work_s": round(self.work_s, 3),
            "n_records": len(self.records),
            "error": self.error,
        }


@dataclass
class CampaignResult:
    """Everything a campaign run produced, in selection order."""

    outcomes: Dict[str, ExperimentOutcome]
    jobs: int
    config: dict
    cache_stats: Dict[str, int] = field(default_factory=dict)
    out_dir: Optional[str] = None
    #: disk result-store observability (when the campaign had a store)
    store_stats: Dict[str, int] = field(default_factory=dict)
    #: True when the campaign was interrupted and this is a partial
    #: result (recorded to the manifest before the interrupt re-raises)
    interrupted: bool = False

    @property
    def failures(self) -> Tuple[str, ...]:
        return tuple(
            name for name, o in self.outcomes.items() if not o.ok
        )

    @property
    def n_failures(self) -> int:
        return len(self.failures)

    @property
    def records(self) -> List[RunRecord]:
        out: List[RunRecord] = []
        for outcome in self.outcomes.values():
            out.extend(outcome.records)
        return out

    def manifest(self) -> dict:
        return {
            "campaign": {
                "jobs": self.jobs,
                "config": self.config,
                "n_experiments": len(self.outcomes),
                "n_failures": self.n_failures,
                "interrupted": self.interrupted,
            },
            "cache": dict(self.cache_stats),
            "store": dict(self.store_stats),
            "experiments": {
                name: outcome.summary()
                for name, outcome in self.outcomes.items()
            },
        }

    def to_json_obj(self) -> dict:
        """Machine-readable campaign dump (``--json`` output)."""
        blob = self.manifest()
        blob["records"] = {
            name: artifacts_module.records_to_json(outcome.records)
            for name, outcome in self.outcomes.items()
        }
        return blob


@dataclass
class CampaignSpec:
    """Declarative campaign description (JSON round-trip).

    ``experiments`` entries are experiment names or
    ``{"name": ..., "config": {...}}`` mappings whose ``config``
    overrides the campaign-level ``config`` for that experiment only.
    An empty ``experiments`` list means *every registered experiment*.
    """

    experiments: List[Any] = field(default_factory=list)
    config: Dict[str, Any] = field(default_factory=dict)
    jobs: int = 1
    out: Optional[str] = None
    only: List[str] = field(default_factory=list)
    skip: List[str] = field(default_factory=list)

    def validate(self) -> "CampaignSpec":
        check_count("jobs", self.jobs)
        if isinstance(self.experiments, str) or not isinstance(
            self.experiments, (list, tuple)
        ):
            raise ConfigError(
                f"experiments must be a list, got {self.experiments!r}"
            )
        for entry in self.experiments:
            name, overrides = _normalize_experiment(entry)
            experiment_entry(name)  # raises on unknown names
            if overrides:
                from repro.experiments.common import ExperimentConfig

                ExperimentConfig.from_dict(overrides)
        from repro.experiments.common import ExperimentConfig

        ExperimentConfig.from_dict(self.config)
        for label, tags in (("only", self.only), ("skip", self.skip)):
            if isinstance(tags, str) or not isinstance(
                tags, (list, tuple)
            ):
                raise ConfigError(
                    f"{label} must be a list of tags, got {tags!r}"
                )
            if not all(isinstance(t, str) and t for t in tags):
                raise ConfigError(
                    f"{label} tags must be non-empty strings, "
                    f"got {tags!r}"
                )
        return self

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignSpec":
        if not isinstance(data, dict):
            raise ConfigError(
                f"campaign spec must be a mapping, got {data!r}"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(
                f"unknown campaign field(s) {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        return cls(**data)

    @classmethod
    def from_json(cls, path: str) -> "CampaignSpec":
        with open(path, "r", encoding="utf-8") as f:
            try:
                data = json.load(f)
            except json.JSONDecodeError as exc:
                raise ConfigError(
                    f"invalid JSON in campaign spec {path!r}: {exc}"
                ) from exc
        return cls.from_dict(data)


def _normalize_experiment(entry: Any) -> Tuple[str, Optional[dict]]:
    """``entry`` -> (name, config overrides or None)."""
    if isinstance(entry, str):
        return entry, None
    if isinstance(entry, dict):
        unknown = set(entry) - {"name", "config"}
        if unknown or "name" not in entry:
            raise ConfigError(
                f"experiment entry must be a name or "
                f"{{'name', 'config'}} mapping, got {entry!r}"
            )
        return entry["name"], entry.get("config") or None
    raise ConfigError(
        f"experiment entry must be a string or mapping, got {entry!r}"
    )


class _PlannedExperiment:
    """Internal: one experiment's entry, config, and unit futures."""

    __slots__ = (
        "entry", "cfg", "units", "futures", "outcome", "plan_s",
        "started",
    )

    def __init__(self, entry: ExperimentEntry, cfg: Any) -> None:
        self.entry = entry
        self.cfg = cfg
        self.units: List[Any] = []
        self.futures: List[Future] = []
        self.outcome: Optional[ExperimentOutcome] = None
        self.plan_s = 0.0
        self.started = 0.0


def _execute_unit(unit: Any, store: Any = None) -> Any:
    """Run one unit, serving spec-shaped units from ``store`` if given.

    The resumable-campaign path: a :class:`~repro.api.spec.RunSpec`
    unit whose canonical key is already in the disk result store
    returns the stored :class:`PipelineResult` without simulating.  A
    miss is evaluated by the service worker's
    :func:`~repro.service.worker.evaluate_and_store`, so a campaign
    persists exactly the record bytes the service would, and both
    branches return the result rebuilt from that record.  Non-spec
    units (closures) have no stable content address and always execute.
    """
    from repro.api.spec import RunSpec

    if store is None or not isinstance(unit, RunSpec):
        return execute_unit(unit)
    from repro.service.store import result_from_dict, run_key
    from repro.service.worker import evaluate_and_store

    record = store.get(run_key(unit))
    if record is None:
        record = evaluate_and_store(unit.to_dict())
        store.put(record)
    return result_from_dict(record["result"])


def _timed_unit(
    unit: Any, store: Any = None
) -> Callable[[], Tuple[Any, float, float]]:
    def call() -> Tuple[Any, float, float]:
        start = time.time()
        output = _execute_unit(unit, store)
        finished = time.time()
        return output, finished - start, finished

    return call


class Campaign:
    """Plan, execute, and collect a batch of experiments.

    ``experiments`` selects what to run: ``None`` (every registered
    experiment), a sequence of names / :class:`ExperimentEntry` objects
    / ``(name-or-entry, config-overrides)`` pairs.  ``only_tags`` and
    ``skip_tags`` filter the selection by registered tags.
    """

    def __init__(
        self,
        experiments: Optional[Sequence[Any]] = None,
        cfg: Any = None,
        jobs: int = 1,
        out_dir: Optional[str] = None,
        only_tags: Sequence[str] = (),
        skip_tags: Sequence[str] = (),
        cache: Optional[ContentCache] = None,
        store: Any = None,
    ) -> None:
        jobs = check_count("jobs", jobs)
        if cfg is None:
            from repro.experiments.common import ExperimentConfig

            cfg = ExperimentConfig()
        self.cfg = cfg
        self.jobs = jobs
        self.out_dir = out_dir
        self.only_tags = tuple(only_tags)
        self.skip_tags = tuple(skip_tags)
        self.cache = cache
        if isinstance(store, str):
            from repro.service.store import ResultStore

            store = ResultStore(store)
        #: optional disk result store: spec-shaped units already keyed
        #: there are served instead of re-run (resumable campaigns)
        self.store = store
        self._selection = self._select(experiments)

    @classmethod
    def from_spec(
        cls, spec: CampaignSpec, cfg: Any = None, **overrides
    ) -> "Campaign":
        """Build a campaign from a declarative :class:`CampaignSpec`."""
        spec.validate()
        if cfg is None:
            from repro.experiments.common import ExperimentConfig

            cfg = ExperimentConfig()
        cfg = cfg.merged(spec.config)
        experiments: Optional[List[Any]] = None
        if spec.experiments:
            experiments = [
                _normalize_experiment(entry)
                for entry in spec.experiments
            ]
        kwargs = dict(
            experiments=experiments,
            cfg=cfg,
            jobs=spec.jobs,
            out_dir=spec.out,
            only_tags=tuple(spec.only),
            skip_tags=tuple(spec.skip),
        )
        kwargs.update(overrides)
        return cls(**kwargs)

    # -- selection ---------------------------------------------------------

    def _select(
        self, experiments: Optional[Sequence[Any]]
    ) -> List[Tuple[ExperimentEntry, Any]]:
        if experiments is None:
            experiments = list(available_experiments())
        selected: List[Tuple[ExperimentEntry, Any]] = []
        seen = set()
        for item in experiments:
            overrides = None
            if (
                isinstance(item, tuple)
                and len(item) == 2
                and isinstance(item[1], (dict, type(None)))
            ):
                item, overrides = item
            if isinstance(item, ExperimentEntry):
                entry = item
            elif isinstance(item, str):
                entry = experiment_entry(item)
            else:
                raise ConfigError(
                    f"campaign experiment must be a name or "
                    f"ExperimentEntry, got {item!r}"
                )
            if entry.name in seen:
                raise ConfigError(
                    f"experiment {entry.name!r} selected twice"
                )
            seen.add(entry.name)
            if self.only_tags and not (
                set(self.only_tags) & set(entry.tags)
            ):
                continue
            if set(self.skip_tags) & set(entry.tags):
                continue
            selected.append((entry, self.cfg.merged(overrides)))
        return selected

    @property
    def selected(self) -> Tuple[str, ...]:
        """Names of the experiments this campaign will run."""
        return tuple(entry.name for entry, _ in self._selection)

    # -- execution ---------------------------------------------------------

    def run(
        self,
        progress: Optional[Callable[[str], None]] = None,
        on_result: Optional[Callable[[ExperimentOutcome], None]] = None,
    ) -> CampaignResult:
        """Execute the selection; never raises for experiment failures.

        ``on_result`` is called with each :class:`ExperimentOutcome` in
        selection order as soon as that experiment's units and collect
        step finish (earlier experiments gate later callbacks, not later
        execution).

        Fatal errors -- ``KeyboardInterrupt`` or anything else outside
        the per-experiment ``Exception`` isolation -- drain gracefully:
        every queued (not yet started) unit is cancelled
        (:func:`cancel_pending`, shared with the service's shutdown
        path), unfinished experiments are recorded as ``cancelled``,
        and the partial manifest is written before the interrupt
        propagates, so a killed campaign leaves an inspectable
        artifact trail instead of nothing.
        """
        say = progress or (lambda message: None)
        cache = self.cache if self.cache is not None else ContentCache()
        planned = [
            _PlannedExperiment(entry, cfg)
            for entry, cfg in self._selection
        ]
        say(
            f"campaign: {len(planned)} experiment(s), "
            f"jobs={self.jobs}"
        )
        interrupt: Optional[BaseException] = None
        with activated(cache):
            with ThreadPoolExecutor(max_workers=self.jobs) as pool:
                try:
                    for exp in planned:
                        exp.started = time.time()
                        try:
                            exp.units = list(exp.entry.plan(exp.cfg))
                        except Exception as exc:
                            exp.outcome = self._failed(
                                exp, "plan", exc,
                                time.time() - exp.started,
                            )
                            continue
                        exp.plan_s = time.time() - exp.started
                        exp.futures = [
                            pool.submit(_timed_unit(unit, self.store))
                            for unit in exp.units
                        ]
                    for index, exp in enumerate(planned):
                        if exp.outcome is None:
                            exp.outcome = self._gather(exp)
                        outcome = exp.outcome
                        say(
                            f"[{index + 1}/{len(planned)}] "
                            f"{outcome.name:18s} {outcome.status}"
                            f" ({outcome.elapsed_s:.1f}s)"
                        )
                        if on_result is not None:
                            on_result(outcome)
                except BaseException as exc:
                    interrupt = exc
                    cancelled = cancel_pending(
                        future
                        for exp in planned
                        for future in exp.futures
                    )
                    say(
                        f"campaign interrupted ({type(exc).__name__}); "
                        f"{cancelled} queued unit(s) cancelled"
                    )
                    for exp in planned:
                        if exp.outcome is None:
                            exp.outcome = self._cancelled(exp, exc)
        outcomes = {
            exp.entry.name: exp.outcome for exp in planned
        }
        result = CampaignResult(
            outcomes=outcomes,
            jobs=self.jobs,
            config=self.cfg.to_dict(),
            cache_stats=cache.stats(),
            out_dir=self.out_dir,
            store_stats=self.store.stats() if self.store else {},
            interrupted=interrupt is not None,
        )
        if self.out_dir:
            self.write_artifacts(result, self.out_dir)
            say(f"artifacts written to {self.out_dir}")
        if interrupt is not None:
            raise interrupt
        return result

    def _failed(
        self,
        exp: _PlannedExperiment,
        stage: str,
        exc: BaseException,
        elapsed_s: float,
    ) -> ExperimentOutcome:
        return ExperimentOutcome(
            name=exp.entry.name,
            figure=exp.entry.figure,
            tags=exp.entry.tags,
            status="failed",
            elapsed_s=elapsed_s,
            error=f"{stage}: {exc!r}",
            traceback="".join(
                traceback_module.format_exception(
                    type(exc), exc, exc.__traceback__
                )
            ),
        )

    def _cancelled(
        self, exp: _PlannedExperiment, exc: BaseException
    ) -> ExperimentOutcome:
        return ExperimentOutcome(
            name=exp.entry.name,
            figure=exp.entry.figure,
            tags=exp.entry.tags,
            status="cancelled",
            elapsed_s=(
                time.time() - exp.started if exp.started else 0.0
            ),
            error=f"campaign interrupted by {type(exc).__name__}",
        )

    def _gather(self, exp: _PlannedExperiment) -> ExperimentOutcome:
        outputs = []
        work = exp.plan_s
        finished_last = exp.started + exp.plan_s
        for future in exp.futures:
            try:
                output, unit_s, finished_at = future.result()
            except Exception as exc:
                return self._failed(
                    exp, "unit", exc, time.time() - exp.started
                )
            outputs.append(output)
            work += unit_s
            finished_last = max(finished_last, finished_at)
        start = time.time()
        try:
            result = exp.entry.collect_outputs(exp.cfg, outputs)
            records = exp.entry.extract_records(result)
            rendered = exp.entry.render_result(result)
        except Exception as exc:
            return self._failed(
                exp, "collect", exc, time.time() - exp.started
            )
        collect_s = time.time() - start
        work += collect_s
        # wall span of this experiment: planning through its last unit,
        # plus the (serial) collect step; idle time spent queued behind
        # other experiments' gather callbacks is excluded
        elapsed = (finished_last - exp.started) + collect_s
        provenance = {
            "config_digest": spec_key(
                "experiment-config", **exp.cfg.to_dict()
            ),
        }
        for record in records:
            record.provenance.update(provenance)
        return ExperimentOutcome(
            name=exp.entry.name,
            figure=exp.entry.figure,
            tags=exp.entry.tags,
            status="ok",
            elapsed_s=elapsed,
            work_s=work,
            result=result,
            records=records,
            rendered=rendered,
        )

    # -- artifacts ---------------------------------------------------------

    def write_artifacts(
        self, result: CampaignResult, out_dir: str
    ) -> dict:
        """Write per-experiment JSON/CSV/text plus ``manifest.json``."""
        os.makedirs(out_dir, exist_ok=True)
        manifest = result.manifest()
        for name, outcome in result.outcomes.items():
            files = {}
            blob = {
                "experiment": name,
                "figure": outcome.figure,
                "tags": list(outcome.tags),
                "status": outcome.status,
                "elapsed_s": round(outcome.elapsed_s, 3),
                "error": outcome.error,
                "traceback": outcome.traceback,
                "records": artifacts_module.records_to_json(
                    outcome.records
                ),
            }
            json_name = f"{name}.json"
            artifacts_module.write_json(
                os.path.join(out_dir, json_name), blob
            )
            files["json"] = json_name
            if outcome.records:
                csv_name = f"{name}.csv"
                artifacts_module.write_text(
                    os.path.join(out_dir, csv_name),
                    artifacts_module.records_to_csv(outcome.records),
                )
                files["csv"] = csv_name
            if outcome.rendered:
                txt_name = f"{name}.txt"
                artifacts_module.write_text(
                    os.path.join(out_dir, txt_name), outcome.rendered
                )
                files["text"] = txt_name
            manifest["experiments"][name]["files"] = files
        artifacts_module.write_json(
            os.path.join(out_dir, "manifest.json"), manifest
        )
        return manifest


def run_campaign_file(
    path: str,
    cfg: Any = None,
    progress: Optional[Callable[[str], None]] = None,
    **overrides,
) -> CampaignResult:
    """Convenience: load a campaign JSON file and run it."""
    try:
        spec = CampaignSpec.from_json(path)
    except OSError as exc:
        raise ReproError(
            f"cannot read campaign spec {path!r}: {exc}"
        ) from exc
    campaign = Campaign.from_spec(spec, cfg=cfg, **overrides)
    return campaign.run(progress=progress)
