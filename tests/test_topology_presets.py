"""The event-driven presets replay their pre-engine records byte for byte.

``event``, ``sharded``, ``distributed``, ``async`` and ``gids`` all run
on one topology engine that differs only in which axes a mode exposes.
``tests/data/pre_engine_records.json`` holds the serialized result of
every spec below, captured while each preset still had its own backend
module, on graphs of the "f64" RMAT draws; the engine must reproduce
every byte.

The matrix targets the places an engine can leak one preset's behavior
into another: host-failure and link-flap draws on modes without a
hosts axis, static front caches on the shard and host axes,
checkpointing, a tiered GIDS cache stack, the GIDS queue-pair depth,
and the prefetch axis's window, worker count, storage faults and a
GIDS design behind it.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.api import RunSpec, Session, SystemSpec
from repro.service.store import record_bytes, result_to_dict

FIXTURE = pathlib.Path(__file__).parent / "data" / "pre_engine_records.json"

_HOST_FAULTS = {"seed": 3, "host_fail_rate": 1.0, "link_flap_rate": 0.5,
                "flash_read_error_rate": 0.01}
_IO_FAULTS = {"seed": 5, "flash_read_error_rate": 0.02,
              "nvme_timeout_rate": 0.05}
_STATIC_STACK = {"cache_tiers": ("hbm", "uva"), "cache_policy": "static"}


def _spec(mode, system=None, **kwargs):
    base = dict(
        dataset="reddit", edge_budget=3e5, rmat_draw="f64", batch_size=24,
        n_workloads=5, n_batches=8, n_workers=2, mode=mode,
        system=SystemSpec(**(system or {})),
    )
    base.update(kwargs)
    return RunSpec(**base)


SPECS = {
    "event-host-faults": _spec("event", {"faults": _HOST_FAULTS}),
    "sharded-k1-host-faults": _spec("sharded", {"faults": _HOST_FAULTS}),
    "sharded-k2-host-faults": _spec(
        "sharded", {"n_shards": 2, "faults": _HOST_FAULTS}
    ),
    "sharded-k2-static-stack": _spec(
        "sharded", {"n_shards": 2, **_STATIC_STACK}
    ),
    "distributed-h2-static-stack": _spec(
        "distributed", {"n_hosts": 2, **_STATIC_STACK}
    ),
    "distributed-h1k2-host-faults": _spec(
        "distributed", {"n_shards": 2, "faults": _HOST_FAULTS}
    ),
    "distributed-h2k2-host-faults-ckpt": _spec(
        "distributed",
        {"n_hosts": 2, "n_shards": 2, "faults": _HOST_FAULTS},
        checkpoint_every=3, checkpoint_bytes=1 << 20,
    ),
    "event-ckpt": _spec(
        "event", checkpoint_every=3, checkpoint_bytes=1 << 20
    ),
    "sharded-k2-hwsw-ckpt": _spec(
        "sharded", {"design": "smartsage-hwsw", "n_shards": 2},
        checkpoint_every=3, checkpoint_bytes=1 << 20,
    ),
    "gids-cached-tier-stack": _spec(
        "gids", {"design": "gids-cached", "cache_tiers": ("hbm", "uva")}
    ),
    "gids-baseline-qp4-faults": _spec(
        "gids", {"design": "gids-baseline", "faults": _HOST_FAULTS},
        qp_depth=4,
    ),
    "async-ckpt": _spec(
        "async", checkpoint_every=3, checkpoint_bytes=1 << 20
    ),
    "async-io-faults": _spec("async", {"faults": _IO_FAULTS}),
    "async-depth1": _spec("async", prefetch_depth=1),
    "async-depth4": _spec("async", prefetch_depth=4),
    "async-w3": _spec("async", n_workers=3),
    "async-gids-cached": _spec("async", {"design": "gids-cached"}),
}


@pytest.fixture(scope="module")
def fixture_records():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_spec(fixture_records):
    assert set(fixture_records) == set(SPECS)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_preset_replays_pre_engine_record(name, fixture_records):
    result = Session(SPECS[name]).run()
    blob = record_bytes(result_to_dict(result))
    assert blob == fixture_records[name].encode("utf-8")


def test_event_mode_imports_no_host_axis_modules():
    """The hosts axis (fabric, RPCs, host planner) is imported only
    when a mode exposes it; a plain event run never pays for it."""
    code = (
        "import sys\n"
        "from repro.api import RunSpec, Session\n"
        "Session(RunSpec(dataset='reddit', edge_budget=3e5, "
        "batch_size=24, n_workloads=5, n_batches=4, n_workers=2, "
        "mode='event')).run()\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[:2] in "
        "(['repro', 'net'], ['repro', 'distributed']))\n"
        "print(','.join(loaded))\n"
    )
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-c", code],
        check=True, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert out.stdout.strip() == ""
