"""The five plug-in registries share one set of rules (repro.registry).

Designs, execution backends, experiments, benchmarks and cache policies
each register through a :class:`repro.registry.Registry`: a taken name
needs ``replace=True``, removal undoes a registration, an unknown name
lists the known ones, and the built-ins load before the first lookup,
registration or removal -- so in a fresh process a clash with a
built-in fails at the ``register_*`` call and removing a built-in
sticks.
"""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.errors import ConfigError

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")

#: kind -> (module, its register/unregister/available/entry functions,
#: the entry's callable field, one built-in name)
SITES = {
    "design": (
        "repro.api.registry",
        ("register_design", "unregister_design", "available_designs",
         "design_entry"),
        "builder", "dram",
    ),
    "backend": (
        "repro.pipeline.backends.registry",
        ("register_backend", "unregister_backend", "available_backends",
         "backend_entry"),
        "plan", "event",
    ),
    "experiment": (
        "repro.api.experiment",
        ("register_experiment", "unregister_experiment",
         "available_experiments", "experiment_entry"),
        "plan", "fig14",
    ),
    "benchmark": (
        "repro.perf.registry",
        ("register_benchmark", "unregister_benchmark",
         "available_benchmarks", "benchmark_entry"),
        "fn", "csr-build",
    ),
    "cache-policy": (
        "repro.cache.policy",
        ("register_cache_policy", "unregister_cache_policy",
         "available_cache_policies", "cache_policy_entry"),
        "factory", "lru",
    ),
}

#: the registries whose built-ins load on first use
LAZY = ("design", "backend", "experiment", "benchmark")


def _first(*args, **kwargs):  # pragma: no cover - never called
    """First plug-in."""


def _second(*args, **kwargs):  # pragma: no cover - never called
    """Second plug-in."""


@pytest.mark.parametrize("kind", sorted(SITES))
def test_registry_rules(kind):
    module, names, field, builtin = SITES[kind]
    module = importlib.import_module(module)
    register, unregister, available, entry = (
        getattr(module, name) for name in names
    )
    before = available()
    with pytest.raises(ConfigError, match="non-empty string"):
        register("")
    with pytest.raises(ConfigError, match="already registered"):
        register(builtin)(_first)
    register("tmp-plugin")(_first)
    try:
        with pytest.raises(ConfigError, match="already registered"):
            register("tmp-plugin")(_second)
        register("tmp-plugin", replace=True)(_second)
        got = entry("tmp-plugin")
        assert getattr(got, field) is _second
        # experiments describe themselves by their module's docstring
        doc = __doc__ if kind == "experiment" else _second.__doc__
        assert got.description == doc.strip().split("\n")[0]
    finally:
        unregister("tmp-plugin")
    assert available() == before
    with pytest.raises(ConfigError) as err:
        entry("no-such-plugin")
    assert "unknown" in str(err.value)
    assert str(before) in str(err.value)


def _fresh(code):
    out = subprocess.run(
        [sys.executable, "-c", code],
        check=True, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    return json.loads(out.stdout)


@pytest.mark.parametrize("kind", LAZY)
def test_builtins_load_before_register_and_unregister(kind):
    module, names, _, builtin = SITES[kind]
    head = f"import json\nfrom {module} import {', '.join(names[:3])}\n"
    clash = _fresh(
        head
        + "from repro.errors import ConfigError\n"
        + "try:\n"
        + f"    {names[0]}({builtin!r})(lambda *a, **k: None)\n"
        + "    clash = 'accepted'\n"
        + "except ConfigError:\n"
        + "    clash = 'raised'\n"
        + f"print(json.dumps([clash, {names[2]}()]))\n"
    )
    removed = _fresh(
        head
        + f"{names[1]}({builtin!r})\n"
        + f"print(json.dumps({names[2]}()))\n"
    )
    assert clash[0] == "raised"
    assert builtin in clash[1]
    assert removed == [name for name in clash[1] if name != builtin]


def test_first_use_from_many_threads_sees_every_builtin():
    code = (
        "import json, sys, threading\n"
        "from repro.api.experiment import available_experiments\n"
        "sys.setswitchinterval(1e-6)\n"
        "barrier = threading.Barrier(8)\n"
        "seen = []\n"
        "def first_use():\n"
        "    barrier.wait(timeout=30)\n"
        "    seen.append(available_experiments())\n"
        "threads = [threading.Thread(target=first_use) for _ in range(8)]\n"
        "for t in threads:\n"
        "    t.start()\n"
        "for t in threads:\n"
        "    t.join(timeout=60)\n"
        "print(json.dumps([any(t.is_alive() for t in threads),\n"
        "                  sorted(set(seen)), available_experiments()]))\n"
    )
    alive, seen, final = _fresh(code)
    assert not alive
    assert seen == [final]
