"""Per-layer spans for traced benchmark runs (``--trace 1``).

The simulator has no span instrumentation of its own, so a traced run
wraps the calls into each layer from here: :func:`hooks_installed`
replaces a handful of module and class attributes with timing wrappers
for the life of the run and restores them afterwards.  Untraced runs
install nothing, so the end-to-end figures carry no tracing cost.

Layers (span names) and the call each one wraps:

================  ==========================================================
``dataset``       ``repro.api.session.scaled_dataset`` (graph generation)
``csr``           ``repro.graph.csr.CSRGraph.from_edges`` (CSR build)
``workloads``     ``repro.api.session.generate_workloads`` (sampling)
``des``           ``repro.api.session.run_pipeline`` (the simulation)
``build_warm``    the ``system_factory`` handed to ``run_pipeline``
``analytic``      ``repro.api.batcheval.evaluate_sessions`` (batched sweeps)
``serialize``     ``repro.service.store.result_to_dict``
``store_write``   ``repro.service.store.ResultStore.put``
``evaluate``      ``repro.service.worker.evaluate_spec_dict``
``queue_wait``    a service job's wait from submission to dispatch
``arrival_late``  a service job's submission after its due time
================  ==========================================================

Each span records its parent and the root span of its request, so a
layer's self time is its duration minus its direct children's.  Set-up
is a request too: a layer that only set-up touches (the dataset on
``warm-des``) reports its set-up cost.  Spans
closed in a forked service worker are appended to a per-process file,
because the worker's memory dies with it.  A hook whose target no
longer exists is skipped and named in :attr:`Tracer.missing`.
"""

from __future__ import annotations

import functools
import glob
import importlib
import json
import os
import statistics
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

#: time layers reported as per-layer metrics, in pipeline order
LAYERS = (
    "dataset",
    "csr",
    "workloads",
    "build_warm",
    "des",
    "analytic",
    "serialize",
    "store_write",
    "queue_wait",
    "arrival_late",
)


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self, spill_dir: str) -> None:
        self.pid = os.getpid()
        self.spill_dir = spill_dir
        self.spans: List[dict] = []
        self.missing: List[str] = []
        #: simulators constructed since the last ``des`` span closed
        self.sims: list = []
        self._stack: List[dict] = []
        self._stack_pid = self.pid
        self._seq = 0

    @contextmanager
    def span(self, name: str):
        """Time the enclosed block as one span; yields its record."""
        if self._stack_pid != os.getpid():
            # a forked worker inherits the stack of whatever span was
            # open at fork time; its own requests start new trees
            self._stack_pid = os.getpid()
            self._stack = []
        self._seq += 1
        parent = self._stack[-1] if self._stack else None
        record = {
            "id": f"{os.getpid()}:{self._seq}",
            "parent": parent["id"] if parent else None,
            "op": parent["op"] if parent else f"{os.getpid()}:{self._seq}",
            "name": name,
            "start": time.time(),
        }
        self._stack.append(record)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.time()
            self._emit(record)

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span measured elsewhere (a service job's queue wait
        or lateness)."""
        self._seq += 1
        sid = f"{os.getpid()}:{self._seq}"
        self._emit({"id": sid, "parent": None, "op": sid, "name": name,
                    "start": start, "end": end})

    def wrap(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def _emit(self, record: dict) -> None:
        if os.getpid() == self.pid:
            self.spans.append(record)
            return
        path = os.path.join(self.spill_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as f:
            f.write(json.dumps(record) + "\n")

    def collect(self) -> List[dict]:
        """This process's spans plus every forked worker's."""
        spans = list(self.spans)
        pattern = os.path.join(self.spill_dir, "spans-*.jsonl")
        for path in sorted(glob.glob(pattern)):
            with open(path, encoding="utf-8") as f:
                spans.extend(json.loads(line) for line in f if line.strip())
        return spans


def layer_metrics(spans: List[dict]) -> Dict[str, float]:
    """Per-layer medians over the requests that touch each layer.

    ``<layer>_ms`` is the median, over requests (root spans), of the
    layer's summed self time within one request.  ``des_events`` is the
    median number of simulator events per ``des`` span, and
    ``des_us_per_event`` the host time the DES spends per event.
    """
    child_s: Dict[str, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_s[s["parent"]] = (
                child_s.get(s["parent"], 0.0) + s["end"] - s["start"]
            )
    per_op: Dict[str, Dict[str, float]] = {name: {} for name in LAYERS}
    events: List[int] = []
    des_self_s = 0.0
    for s in spans:
        if s["name"] not in per_op:
            continue
        self_s = s["end"] - s["start"] - child_s.get(s["id"], 0.0)
        totals = per_op[s["name"]]
        totals[s["op"]] = totals.get(s["op"], 0.0) + self_s
        if s["name"] == "des":
            events.append(s.get("events", 0))
            des_self_s += self_s
    out: Dict[str, float] = {}
    for name in LAYERS:
        values = list(per_op[name].values())
        out[f"{name}_ms"] = statistics.median(values) * 1e3 if values else 0.0
    out["des_events"] = statistics.median(events) if events else 0
    out["des_us_per_event"] = (
        des_self_s / sum(events) * 1e6 if sum(events) else 0.0
    )
    return out


def _patch(undo: list, owner, attr: str, value) -> None:
    undo.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, value)


def _target(tracer: Tracer, module: str, attr: str) -> Optional[tuple]:
    """``(owner, name)`` for ``module:Class.attr`` or ``module:attr``."""
    try:
        owner = importlib.import_module(module)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        if name not in owner.__dict__:
            raise AttributeError(name)
    except (ImportError, AttributeError):
        tracer.missing.append(f"{module}:{attr}")
        return None
    return owner, name


@contextmanager
def hooks_installed(tracer: Tracer):
    """Wrap every layer entry point with spans; restore them on exit."""
    undo: list = []

    def hook(module: str, attr: str, make: Callable) -> None:
        found = _target(tracer, module, attr)
        if found is not None:
            owner, name = found
            _patch(undo, owner, name, make(owner.__dict__[name]))

    def plain(name: str) -> Callable:
        return lambda fn: tracer.wrap(fn, name)

    def classmethod_(name: str) -> Callable:
        return lambda cm: classmethod(tracer.wrap(cm.__func__, name))

    def simulator_init(init: Callable) -> Callable:
        @functools.wraps(init)
        def traced_init(sim, *args, **kwargs):
            init(sim, *args, **kwargs)
            tracer.sims.append(sim)
        return traced_init

    def run_pipeline(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            factory = kwargs.get("system_factory")
            if factory is not None:
                kwargs["system_factory"] = tracer.wrap(factory, "build_warm")
            mark = len(tracer.sims)
            with tracer.span("des") as record:
                try:
                    return fn(*args, **kwargs)
                finally:
                    sims = tracer.sims[mark:]
                    del tracer.sims[mark:]
                    record["events"] = sum(
                        getattr(sim, "processed_events", 0) for sim in sims
                    )
        return traced

    hook("repro.sim.engine", "Simulator.__init__", simulator_init)
    hook("repro.api.session", "scaled_dataset", plain("dataset"))
    hook("repro.graph.csr", "CSRGraph.from_edges", classmethod_("csr"))
    hook("repro.api.session", "generate_workloads", plain("workloads"))
    hook("repro.api.session", "run_pipeline", run_pipeline)
    hook("repro.api.batcheval", "evaluate_sessions", plain("analytic"))
    hook("repro.service.store", "result_to_dict", plain("serialize"))
    hook("repro.service.store", "ResultStore.put", plain("store_write"))
    hook("repro.service.worker", "evaluate_spec_dict", plain("evaluate"))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
