"""Repository benchmark: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload cold-spec --seed 1 --seconds 30 --trace 0

Workloads are described in ``perfbench/workloads.py``.  With
``--trace 0`` the result carries the end-to-end metrics: op latency
median and p90, throughput, and the median set-up time.  ``attempted``
counts the ops; a 30-second run times 150 to 400 of them, so the p90
rests on at least 15 samples beyond it.  Throughput is ops per busy
second: the closed loops' summed op time, and for ``service-traffic``
the worker pool's busy time divided by its worker count.  With
``--trace 1`` the run records spans at every layer boundary
(``perfbench/spans.py``) and the result carries per-layer self times
instead, while the spans themselves are written to
``.perfbench/trace-<workload>-seed<seed>.json``.  Closed-loop times
are in reference units, corrected for the host's momentary speed
(``perfbench/hostspeed.py``); the run's median host slowdown and the
end-to-end figures in raw wall time are printed to standard error.

The last line of standard output is the JSON result.  Without the
simulator's sources under ``src/`` the script exits with status 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from contextlib import nullcontext

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")


def _end_to_end(out, seconds) -> dict:
    """End-to-end metrics, with times converted by ``seconds``."""
    lat = seconds(out.ops)
    busy_s = sum(seconds(out.busy))
    return {
        "op_ms": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
        "op_p90_ms": {"value": statistics.quantiles(lat, n=10)[-1] * 1e3,
                      "unit": "ms"},
        "throughput_ops_s": {"value": len(lat) / busy_s, "unit": "1/s"},
        "setup_s": {"value": statistics.median(seconds(out.setups)),
                    "unit": "s"},
    }


def _wall_s(samples) -> list:
    return [wall for wall, _ in samples]


def _slowdown(out) -> float:
    """The run's median host slowdown (1 where times stay wall time)."""
    return statistics.median(out.slowdowns) if out.slowdowns else 1.0


def _per_layer(values: dict, slowdown: float) -> dict:
    """Layer times in reference ms (scaled by the run's median slowdown)."""
    out = {}
    for name, value in values.items():
        if name == "des_events":
            out[name] = {"value": value, "unit": "count"}
        else:
            unit = "us" if name == "des_us_per_event" else "ms"
            out[name] = {"value": value / slowdown, "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from spans import Tracer, hooks_installed, layer_metrics
    from workloads import WORKLOADS, Context, run_workload

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")

    run_dir = os.path.join(OUT_DIR, f"run-{os.getpid()}")
    work_dir = os.path.join(run_dir, "work")
    os.makedirs(work_dir)
    try:
        tracer = None
        scope = nullcontext()
        if args.trace:
            spill = os.path.join(run_dir, "spans")
            os.makedirs(spill)
            tracer = Tracer(spill)
            scope = hooks_installed(tracer)
        ctx = Context(args.seed, args.seconds, work_dir, tracer)
        out = run_workload(args.workload, ctx, scope)
        if tracer is None:
            metrics = _end_to_end(out, out.reference_s)
            raw = _end_to_end(out, _wall_s)
            print("perfbench: raw wall " + json.dumps(
                {k: v["value"] for k, v in raw.items()}), file=sys.stderr)
        else:
            spans = tracer.collect()
            metrics = _per_layer(layer_metrics(spans), _slowdown(out))
            trace_path = os.path.join(
                OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"
            )
            with open(trace_path, "w", encoding="utf-8") as f:
                json.dump({"missing_hooks": tracer.missing, "spans": spans}, f)
            if tracer.missing:
                print(f"perfbench: hooks not found: {tracer.missing}",
                      file=sys.stderr)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for problem in out.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(
        f"perfbench: {args.workload} seed {args.seed}: "
        f"{len(out.ops)} ops timed, {out.attempted} attempted, "
        f"{out.failed} failed, median host slowdown "
        f"{_slowdown(out):.3f}",
        file=sys.stderr,
    )
    if out.late:
        print(f"perfbench: arrivals submitted late by median "
              f"{statistics.median(out.late) * 1e3:.2f} ms, max "
              f"{max(out.late) * 1e3:.2f} ms", file=sys.stderr)
    print(json.dumps({
        "correct": bool(out.attempted) and out.failed == 0
        and not out.problems,
        "attempted": max(1, out.attempted),
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
