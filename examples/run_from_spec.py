"""Declarative runs from a JSON spec, plus a plug-in design point.

Shows the three pieces of the ``repro.api`` subsystem working together:

1. a ``RunSpec`` serialized to JSON and loaded back
   (the same file works with ``python -m repro run-spec spec.json``);
2. a ``Session`` built from it, run end-to-end and compared across
   designs on an identical dataset + workload pool;
3. a custom design point registered with ``@register_design`` and run
   through the same spec -- no changes to ``repro.core`` needed.

Run:  python examples/run_from_spec.py
"""

import json
import os
import tempfile

from repro import RunSpec, Session, register_design, unregister_design
from repro.core.sampling_engines import DirectIOSamplingEngine

SPEC = {
    "dataset": "protein-pi",
    "edge_budget": 4e5,
    "batch_size": 48,
    "n_workloads": 5,
    "mode": "event",
    "n_batches": 12,
    "n_workers": 4,
    "system": {
        "design": "smartsage-hwsw",
        "fanouts": [25, 10],
        "host_cache_frac": 0.15,
        # serializable hardware overrides, section -> field -> value
        "hardware": {"workload": {"hidden_dim": 128}},
    },
}


def main() -> None:
    # 1) JSON round-trip: what you'd check into a sweep config directory.
    with tempfile.NamedTemporaryFile(
        "w", suffix=".json", delete=False
    ) as f:
        json.dump(SPEC, f, indent=2)
        path = f.name
    try:
        spec = RunSpec.from_json(path)
        print(f"loaded spec: {spec.dataset} / {spec.system.design}")

        # 2) One call from spec to PipelineResult.
        session = Session.from_spec(spec)
        result = session.run()
        print(f"end-to-end: {result.elapsed_s * 1e3:.1f} ms for "
              f"{result.n_batches} batches, GPU idle "
              f"{result.gpu_idle_fraction:.0%}\n")

        # ...and a Fig 18-style comparison on the same workloads.
        cmp = session.compare(
            ["ssd-mmap", "smartsage-sw", "smartsage-hwsw", "dram"]
        )
        print(cmp.table())

        # 3) An eighth design point, registered without touching core:
        # direct I/O with a double-size edge scratchpad.
        @register_design("smartsage-sw-bigcache", ssd_backed=True,
                         description="SW path, 2x host cache")
        def _build_big_cache(ctx):
            ssd = ctx.make_ssd()
            sw = ctx.host_software()
            scratch = ctx.edge_scratchpad()
            scratch.capacity *= 2
            return ctx.make_system(
                ssd=ssd,
                sampling_engine=DirectIOSamplingEngine(
                    ssd, ctx.edge_layout, scratch, sw
                ),
                feature_engine=ctx.dram_feature_engine(),
            )

        try:
            cost = session.sampling_cost("smartsage-sw-bigcache")
            base = session.sampling_cost("smartsage-sw")
            print(f"\nplug-in design 'smartsage-sw-bigcache': "
                  f"{cost.total_s * 1e3:.2f} ms/batch "
                  f"(stock SW path: {base.total_s * 1e3:.2f} ms)")
        finally:
            unregister_design("smartsage-sw-bigcache")
    finally:
        os.unlink(path)


if __name__ == "__main__":
    main()
