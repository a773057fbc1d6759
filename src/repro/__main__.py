"""Command-line entry point.

Usage::

    python -m repro list                      # available experiments
    python -m repro designs                   # registered design points
    python -m repro backends                  # registered execution backends
    python -m repro run fig14                 # one experiment
    python -m repro run [all] [--quick] [--jobs N] [--json] [--out DIR]
    python -m repro run all --only paper --skip e2e
    python -m repro run-spec spec.json        # one declarative run
    python -m repro run-spec spec.json --compare dram,ssd-mmap
    python -m repro campaign campaign.json    # declarative batch
    python -m repro bench                     # all registered benchmarks
    python -m repro bench llc-trace --smoke   # a quick subset
    python -m repro bench --baseline bench/baseline   # regression gate
    python -m repro calibrate                 # headline ratios
    python -m repro submit state/ spec.json   # spool a spec submission
    python -m repro serve state/ --workers 2 --once   # drain the queue
    python -m repro status state/             # queue + store state
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SmartSAGE (ISCA 2022) reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    sub.add_parser("designs", help="list registered design points")
    sub.add_parser("backends", help="list registered execution backends")
    run = sub.add_parser(
        "run", help="run one experiment (or 'all') as a campaign"
    )
    run.add_argument(
        "experiment", nargs="?", default="all",
        help="experiment name (default: 'all')",
    )
    run.add_argument(
        "--quick", action="store_true",
        help="reduced scale (faster, compressed ratios)",
    )
    run.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker threads for experiment units (default: 1)",
    )
    run.add_argument(
        "--json", action="store_true",
        help="print a machine-readable campaign summary instead of text",
    )
    run.add_argument(
        "--out", metavar="DIR", default=None,
        help="write manifest.json + per-experiment JSON/CSV/text here",
    )
    run.add_argument(
        "--only", metavar="TAGS", default=None,
        help="comma-separated tags; run only experiments carrying one",
    )
    run.add_argument(
        "--skip", metavar="TAGS", default=None,
        help="comma-separated tags; skip experiments carrying one",
    )
    run_spec = sub.add_parser(
        "run-spec", help="run a declarative JSON RunSpec end-to-end"
    )
    run_spec.add_argument("spec", help="path to a RunSpec JSON file")
    run_spec.add_argument(
        "--compare", metavar="DESIGNS",
        help="comma-separated designs to compare on the spec's workload "
             "(first is the speedup baseline)",
    )
    campaign = sub.add_parser(
        "campaign",
        help="execute a declarative campaign JSON file",
    )
    campaign.add_argument(
        "spec", help="path to a campaign JSON file (CampaignSpec)"
    )
    campaign.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="override the spec's worker thread count",
    )
    campaign.add_argument(
        "--out", metavar="DIR", default=None,
        help="override the spec's artifact directory",
    )
    campaign.add_argument(
        "--json", action="store_true",
        help="print a machine-readable campaign summary",
    )
    bench = sub.add_parser(
        "bench", help="run registered benchmarks, writing BENCH_*.json"
    )
    bench.add_argument(
        "benchmarks", nargs="*", metavar="NAME",
        help="benchmark names (default: all registered)",
    )
    bench.add_argument(
        "--smoke", action="store_true",
        help="reduced problem sizes (CI/test scale)",
    )
    bench.add_argument(
        "--out", metavar="DIR", default="bench",
        help="directory for BENCH_*.json artifacts (default: bench/)",
    )
    bench.add_argument(
        "--no-write", action="store_true",
        help="measure only; do not write BENCH_*.json",
    )
    bench.add_argument(
        "--repeats", type=int, default=3, metavar="N",
        help="timing repetitions per measurement, best kept (default: 3)",
    )
    bench.add_argument(
        "--baseline", metavar="DIR", default=None,
        help="compare against BENCH_*.json in DIR; exit 1 on regression",
    )
    bench.add_argument(
        "--max-regression", type=float, default=2.0, metavar="X",
        help="fail when ops/sec falls more than X-fold vs the baseline "
             "(default: 2.0)",
    )
    bench.add_argument(
        "--tag", metavar="TAG", default=None,
        help="run only benchmarks carrying TAG (micro, macro, ...)",
    )
    bench.add_argument(
        "--list", action="store_true", dest="list_benchmarks",
        help="list registered benchmarks and exit",
    )
    bench.add_argument(
        "--json", action="store_true",
        help="print a machine-readable summary instead of text",
    )
    sub.add_parser("calibrate", help="print headline ratios vs paper")
    submit = sub.add_parser(
        "submit",
        help="spool a RunSpec submission into a service state directory",
    )
    submit.add_argument("state", help="service state directory")
    submit.add_argument("spec", help="path to a RunSpec JSON file")
    submit.add_argument(
        "--priority", type=int, default=0, metavar="N",
        help="scheduling priority (higher first; default: 0)",
    )
    serve = sub.add_parser(
        "serve", help="run the campaign service over a state directory"
    )
    serve.add_argument("state", help="service state directory")
    serve.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="worker pool size (default: 2)",
    )
    serve.add_argument(
        "--executor", choices=("process", "thread", "inline"),
        default="process",
        help="worker tier (default: process)",
    )
    serve.add_argument(
        "--once", action="store_true",
        help="drain until idle and exit (default: keep serving)",
    )
    serve.add_argument(
        "--max-wall", type=float, default=None, metavar="S",
        help="stop serving after S seconds",
    )
    serve.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="per-job timeout in seconds (default: none)",
    )
    serve.add_argument(
        "--retries", type=int, default=1, metavar="N",
        help="retries after a worker crash (default: 1)",
    )
    serve.add_argument(
        "--json", action="store_true",
        help="print a machine-readable serving report",
    )
    status = sub.add_parser(
        "status", help="show a service state directory's queue and store"
    )
    status.add_argument("state", help="service state directory")
    status.add_argument(
        "--json", action="store_true",
        help="print the full machine-readable status",
    )
    status.add_argument(
        "--prune", action="store_true",
        help="prune the result and graph stores before reporting "
             "(with --max-store-bytes / --ttl)",
    )
    status.add_argument(
        "--max-store-bytes", type=int, default=None, metavar="BYTES",
        help="store size budget: prune oldest records past this total",
    )
    status.add_argument(
        "--ttl", type=float, default=None, metavar="SECONDS",
        help="store record time-to-live: prune records older than this",
    )
    return parser


def _cmd_designs() -> int:
    from repro.api import available_designs, design_entry

    for name in available_designs():
        entry = design_entry(name)
        backing = "ssd " if entry.ssd_backed else "mem "
        print(f"{name:18s} [{backing}] {entry.description}")
    return 0


def _cmd_backends() -> int:
    from repro.pipeline.backends import available_backends, backend_entry

    for name in available_backends():
        entry = backend_entry(name)
        graph = "graph" if entry.needs_graph else "     "
        print(f"{name:18s} [{graph}] {entry.description}")
    return 0


def _cmd_run_spec(path: str, compare: str = None) -> int:
    from repro.api import Session
    from repro.errors import ReproError

    try:
        session = Session.from_json(path)
        if compare:
            designs = [d.strip() for d in compare.split(",") if d.strip()]
            print(session.compare(designs).table())
        else:
            result = session.run()
            print(f"design:      {result.design}")
            print(f"mode:        {result.mode}")
            print(f"batches:     {result.n_batches} "
                  f"x {result.n_workers} workers")
            print(f"elapsed:     {result.elapsed_s * 1e3:.2f} ms")
            print(f"throughput:  {result.throughput_batches_per_s:.1f} "
                  f"batches/s")
            print(f"gpu idle:    {result.gpu_idle_fraction:.0%}")
            for phase, mean in result.phase_means.items():
                print(f"  {phase:20s} {mean * 1e3:9.3f} ms/batch")
            if result.backend_stats.get("net_bytes"):
                bs = result.backend_stats
                print(f"network:     {bs['net_bytes'] / 1e9:.3f} GB "
                      f"({bs['net_messages']:.0f} messages)")
                for cls in ("sampling_rpc", "feature_pull", "allreduce"):
                    nbytes = bs.get(f"net_{cls}_bytes", 0.0)
                    print(f"  {cls:20s} {nbytes / 1e9:9.3f} GB")
    except (ReproError, OSError) as exc:
        # Validation errors already name the offending field; prefix the
        # spec file so batch callers can tell which input failed.
        print(f"error: run-spec {path!r}: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_bench(args) -> int:
    from repro.errors import ReproError
    from repro.perf import (
        available_benchmarks,
        benchmark_entry,
        benchmarks_with_tag,
        compare_to_baseline,
        load_baseline,
        run_benchmarks,
    )

    try:
        if args.list_benchmarks:
            for name in available_benchmarks():
                entry = benchmark_entry(name)
                tags = ",".join(entry.tags)
                print(f"{name:18s} [{tags:14s}] {entry.description}")
            return 0
        names = list(args.benchmarks) or None
        for name in names or ():
            benchmark_entry(name)  # fail fast on unknown names
        if args.tag:
            tagged = benchmarks_with_tag(args.tag)
            names = [n for n in (names or tagged) if n in tagged]
            if not names:
                print(f"no benchmarks carry tag {args.tag!r}",
                      file=sys.stderr)
                return 2
        results = run_benchmarks(
            names=names,
            smoke=args.smoke,
            out_dir=None if args.no_write else args.out,
            repeats=args.repeats,
            progress=None if args.json else print,
        )
        if args.json:
            print(json.dumps(
                [r.to_json_obj() for r in results], indent=2
            ))
        elif not args.no_write:
            print(f"artifacts: {args.out}/BENCH_*.json")
        if args.baseline:
            regressions = compare_to_baseline(
                results,
                load_baseline(args.baseline),
                max_regression=args.max_regression,
            )
            for regression in regressions:
                print(f"REGRESSION {regression}", file=sys.stderr)
            if regressions:
                return 1
            print(
                f"baseline ok: no >{args.max_regression:g}x regressions "
                f"vs {args.baseline}",
                file=sys.stderr,
            )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _split_tags(blob) -> tuple:
    if not blob:
        return ()
    return tuple(t.strip() for t in blob.split(",") if t.strip())


def _print_banner(outcome) -> None:
    """``repro run all``'s per-experiment section of the text report."""
    print("=" * 72)
    if outcome.ok:
        print(f"{outcome.name}  ({outcome.elapsed_s:.1f}s)")
        print("=" * 72)
        print(outcome.rendered or "(no rendering)")
    else:
        print(f"{outcome.name}  FAILED: {outcome.error}")
        print("=" * 72)
        if outcome.traceback:
            print(outcome.traceback, end="")
    print()


def _cmd_run(args) -> int:
    """``repro run <name>`` and ``repro run all``: one campaign each."""
    from repro.api.campaign import Campaign
    from repro.experiments.run_all import ORDER, suite_config

    suite = args.experiment == "all"
    campaign = Campaign(
        experiments=ORDER if suite else [args.experiment],
        cfg=suite_config(args.quick),
        jobs=args.jobs,
        out_dir=args.out,
        only_tags=_split_tags(args.only),
        skip_tags=_split_tags(args.skip),
    )
    start = time.time()
    result = campaign.run(
        on_result=_print_banner if suite and not args.json else None
    )
    if args.json:
        print(json.dumps(result.to_json_obj(), indent=2))
    elif suite:
        print(f"total: {time.time() - start:.1f}s")
    else:
        if not result.outcomes:
            print(
                f"{args.experiment}: excluded by --only/--skip "
                "tag filters",
                file=sys.stderr,
            )
        for outcome in result.outcomes.values():
            if outcome.ok:
                print(outcome.rendered or "(no rendering)")
            else:
                print(
                    f"{outcome.name} FAILED: {outcome.error}",
                    file=sys.stderr,
                )
                if outcome.traceback:
                    print(outcome.traceback, end="", file=sys.stderr)
    if suite and result.failures:
        print(f"FAILED: {', '.join(result.failures)}", file=sys.stderr)
    return result.n_failures


def _cmd_campaign(args) -> int:
    from repro.api.campaign import run_campaign_file
    from repro.errors import ReproError

    overrides = {}
    if args.jobs is not None:
        overrides["jobs"] = args.jobs
    if args.out is not None:
        overrides["out_dir"] = args.out
    try:
        result = run_campaign_file(
            args.spec,
            progress=None if args.json
            else lambda message: print(message, file=sys.stderr),
            **overrides,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(result.to_json_obj(), indent=2))
    else:
        for name, outcome in result.outcomes.items():
            status = "ok" if outcome.ok else f"FAILED: {outcome.error}"
            print(f"{name:18s} {status}")
        if result.out_dir:
            print(f"artifacts: {result.out_dir}")
    if result.failures:
        print(
            f"FAILED: {', '.join(result.failures)}", file=sys.stderr
        )
    return result.n_failures


def _cmd_submit(args) -> int:
    from repro.api.spec import RunSpec
    from repro.errors import ReproError
    from repro.service.jobs import Spool
    from repro.service.store import run_key

    try:
        with open(args.spec, "r", encoding="utf-8") as f:
            spec_dict = json.load(f)
        spec = RunSpec.from_dict(spec_dict)
        key = run_key(spec)
    except (ReproError, OSError, json.JSONDecodeError) as exc:
        print(f"error: submit {args.spec!r}: {exc}", file=sys.stderr)
        return 1
    import os

    path = Spool(os.path.join(args.state, "spool")).append(
        spec.to_dict(), args.priority
    )
    print(f"spooled {key} -> {path}")
    return 0


def _cmd_serve(args) -> int:
    from repro.errors import ReproError
    from repro.service.server import CampaignService

    try:
        service = CampaignService(
            args.state,
            workers=args.workers,
            executor=args.executor,
            job_timeout_s=args.timeout,
            max_retries=args.retries,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    recovered = service.queue.recovered_running
    if recovered and not args.json:
        print(
            f"recovered {len(recovered)} interrupted job(s): "
            + ", ".join(recovered),
            file=sys.stderr,
        )
    try:
        with service:
            report = service.drain(
                stop_when_idle=args.once, max_wall_s=args.max_wall
            )
    except KeyboardInterrupt:
        print("interrupted; queued work journaled for restart",
              file=sys.stderr)
        return 130
    if args.json:
        print(json.dumps(report.to_json_obj(), indent=2))
    else:
        print(report.summary())
    return 0 if report.counts.get("failed", 0) == 0 else 1


def _cmd_status(args) -> int:
    from repro.service.server import CampaignService

    pruned = None
    if args.prune:
        if args.max_store_bytes is None and args.ttl is None:
            print(
                "status --prune needs --max-store-bytes and/or --ttl",
                file=sys.stderr,
            )
            return 2
        from repro.service.store import ResultStore

        pruned = ResultStore(
            os.path.join(args.state, "store"),
            graph_root=os.path.join(args.state, "graphs"),
        ).prune(max_bytes=args.max_store_bytes, ttl=args.ttl)
    with CampaignService(args.state, workers=1) as service:
        info = service.status()
    if pruned is not None:
        info["pruned"] = pruned
    if args.json:
        print(json.dumps(info, indent=2))
        return 0
    counts = info["counts"]
    print(f"state:   {info['state_dir']}")
    print(
        "jobs:    "
        + ", ".join(f"{counts[s]} {s}" for s in counts)
    )
    print(f"spool:   {info['spool_pending']} pending submission(s)")
    store = info["store"]
    print(f"store:   {store.get('entries', 0)} record(s)")
    if pruned is not None:
        print(
            f"pruned:  {pruned['deleted']} record(s), "
            f"{pruned['deleted_bytes']} bytes "
            f"({pruned['entries_after']} record(s), "
            f"{pruned['bytes_after']} bytes remain)"
        )
        graphs = pruned["graphs"]
        print(
            f"graphs:  {graphs['deleted']} pruned, "
            f"{graphs['deleted_bytes']} bytes "
            f"({graphs['entries_after']} graph(s), "
            f"{graphs['bytes_after']} bytes remain)"
        )
    if info["recovered_running"]:
        print(
            "recovered (were running at last stop): "
            + ", ".join(info["recovered_running"])
        )
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        from repro.api.experiment import (
            available_experiments,
            experiment_entry,
        )

        for name in available_experiments():
            print(f"{name:18s} {experiment_entry(name).description}")
        return 0
    if args.command == "designs":
        return _cmd_designs()
    if args.command == "backends":
        return _cmd_backends()
    if args.command == "run-spec":
        return _cmd_run_spec(args.spec, args.compare)
    if args.command == "campaign":
        return _cmd_campaign(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "status":
        return _cmd_status(args)
    if args.command == "calibrate":
        from repro.api.experiment import run_experiment
        from repro.experiments.run_all import suite_config

        print(run_experiment("calibration", suite_config()).rendered)
        return 0
    # run
    from repro.api.experiment import available_experiments

    if args.experiment != "all" and (
        args.experiment not in available_experiments()
    ):
        print(
            f"unknown experiment {args.experiment!r}; try: "
            + ", ".join(available_experiments()),
            file=sys.stderr,
        )
        return 2
    return _cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
