"""The one way the tests hand-build a pipeline request.

A request carries a :class:`~repro.api.spec.RunSpec`, so a test names
its knobs as spec fields: :class:`~repro.api.spec.SystemSpec` fields
(``n_shards``, ``fabric``, ``faults``, ...) go on the spec's system,
every other knob (``mode``, ``n_batches``, ...) on the run spec.
"""

import dataclasses

from repro.api import RunSpec, SystemSpec
from repro.pipeline import ExecutionRequest

_SYSTEM_FIELDS = frozenset(f.name for f in dataclasses.fields(SystemSpec))


def make_request(gpu, workloads, *, graph=None, system=None, **knobs):
    """An :class:`ExecutionRequest` over ``workloads`` whose spec holds
    ``knobs``; ``system`` is the bound ``TrainingSystem``, not a spec
    field."""
    system_knobs = {
        name: knobs.pop(name) for name in list(knobs)
        if name in _SYSTEM_FIELDS
    }
    spec = RunSpec(system=SystemSpec(**system_knobs), **knobs)
    return ExecutionRequest(
        spec, gpu=gpu, workloads=list(workloads), graph=graph, system=system
    )
