"""Declarative APIs: specs, registries, sessions, and campaigns.

The pieces:

* :mod:`repro.api.registry` -- ``@register_design`` / ``available_designs``:
  the pluggable design-point registry that ``build_system`` dispatches
  through.  Third-party designs register without touching core.
* :mod:`repro.pipeline.backends` -- ``@register_backend`` /
  ``available_backends``: the execution-backend registry that
  ``run_pipeline`` dispatches through (``event``/``analytic``/
  ``sharded``/``async``); re-exported here for symmetry.
* :mod:`repro.api.spec` -- ``SystemSpec`` / ``RunSpec``: serializable,
  validated descriptions of what to build and run (JSON round-trip).
* :mod:`repro.api.session` -- ``Session``: dataset -> system -> GPU ->
  pipeline in one call, plus ``compare``/``sweep`` helpers.
* :mod:`repro.api.experiment` -- ``@register_experiment`` /
  ``available_experiments``: the experiment registry (plan/collect
  protocol, structured ``RunRecord`` rows).
* :mod:`repro.registry` -- ``Registry``: the one implementation behind
  the design, backend, experiment, benchmark and cache-policy
  registries (name check, clash and removal rules, lazy built-ins).
* :mod:`repro.api.campaign` -- ``Campaign``: batch executor over a
  shared content-addressed cache with structured artifacts.
* :mod:`repro.api.cache` -- ``ContentCache``: the build-once substrate
  campaigns share across experiments and worker threads.

``Session`` and ``Campaign`` (and friends) are imported lazily so that
``repro.core.systems`` can import the registry at module load without a
circular import.
"""

from repro.api.experiment import (
    ExperimentEntry,
    RunRecord,
    available_experiments,
    experiment_entry,
    experiments_with_tag,
    register_experiment,
    run_experiment,
    unregister_experiment,
)
from repro.api.registry import (
    DesignEntry,
    available_designs,
    design_entry,
    is_ssd_backed,
    register_design,
    unregister_design,
)
from repro.api.spec import RunSpec, SystemSpec

__all__ = [
    "DesignEntry",
    "register_design",
    "unregister_design",
    "available_designs",
    "design_entry",
    "is_ssd_backed",
    "BackendEntry",
    "register_backend",
    "unregister_backend",
    "available_backends",
    "backend_entry",
    "ExperimentEntry",
    "RunRecord",
    "register_experiment",
    "unregister_experiment",
    "available_experiments",
    "experiment_entry",
    "experiments_with_tag",
    "run_experiment",
    "SystemSpec",
    "RunSpec",
    "Session",
    "DesignComparison",
    "scaled_dataset",
    "generate_workloads",
    "steady_state_cost",
    "sampling_throughput",
    "Campaign",
    "CampaignResult",
    "CampaignSpec",
    "ExperimentOutcome",
    "ContentCache",
]

_SESSION_NAMES = (
    "Session",
    "DesignComparison",
    "scaled_dataset",
    "generate_workloads",
    "steady_state_cost",
    "sampling_throughput",
)

_CAMPAIGN_NAMES = (
    "Campaign",
    "CampaignResult",
    "CampaignSpec",
    "ExperimentOutcome",
)

#: lazily re-exported so importing ``repro.api`` does not pull the whole
#: pipeline package (which itself imports ``repro.core``) at load time
_BACKEND_NAMES = (
    "BackendEntry",
    "register_backend",
    "unregister_backend",
    "available_backends",
    "backend_entry",
)


def __getattr__(name):
    if name in _SESSION_NAMES:
        from repro.api import session

        return getattr(session, name)
    if name in _CAMPAIGN_NAMES:
        from repro.api import campaign

        return getattr(campaign, name)
    if name in _BACKEND_NAMES:
        from repro.pipeline import backends

        return getattr(backends, name)
    if name == "ContentCache":
        from repro.api.cache import ContentCache

        return ContentCache
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(__all__)
