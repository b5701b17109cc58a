"""Command-line interface: ``python -m repro <command>``.

Wraps the library's most common flows so a user can try the monitor
without writing code:

* ``run``   — run one benchmark on a simulated GPU, optionally with the
  AkitaRTM dashboard attached;
* ``demo``  — start the paper's "problematic im2col" simulation and
  keep the dashboard up for interactive exploration;
* ``study`` — execute the scripted user study and print Figure 6;
* ``trace`` — run one benchmark with the tracer attached and export
  the recorded message/task lifecycle (JSONL or Perfetto);
* ``metrics`` — run one benchmark with the metric registry attached
  and dump the final Prometheus text exposition;
* ``profile`` — run one monitored benchmark under the continuous
  profiler and record its overhead-attribution summary
  (``record``), then print (``report``), convert (``export``) or A/B
  diff (``diff``) recorded summaries;
* ``fleet`` — drain a parameter sweep (workload x chiplet count)
  through a worker pool behind the aggregating gateway, or query a
  running gateway's ``/api/fleet``;
* ``historian`` — query a campaign historian database
  (``list|show|compare|prune``); campaigns record themselves into one
  with ``fleet run --historian <db>``;
* ``workloads`` — list the available benchmarks (``--json`` emits the
  machine-readable catalog fleet jobs are validated against).

``repro run`` installs SIGTERM/SIGINT handlers that stop the engine,
flush exports and exit 0 — a fleet manager (or an operator's Ctrl-C)
tearing a run down is a clean shutdown, not a failure.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
import time
from typing import List, Optional

from .core import Monitor
from .gpu import GPUPlatform, GPUPlatformConfig
from .metrics import rate as metrics_rate
from .studies import run_study
from .studies.session import problem_platform_config, problem_workload
from .workloads import SUITE, StoreStorm, suite_small

#: What ``repro run`` (and friends) may execute: the paper's suite
#: plus the StoreStorm diagnostic — the shard layer's reference
#: workload, runnable directly since ``--shards`` landed.
_RUNNABLE = sorted([*SUITE, "storestorm"])


def _add_fleet_common(parser: argparse.ArgumentParser) -> None:
    """Flags shared by ``fleet run`` and ``fleet resume``: the gateway,
    the wall bound, durability (journal + checkpoints) and artifacts."""
    parser.add_argument("--port", type=int, default=0,
                        help="gateway port (default: ephemeral)")
    parser.add_argument("--timeout", type=float, default=600.0,
                        help="wall bound for the whole campaign "
                             "(default 600 s)")
    parser.add_argument("--journal", default="",
                        help="append every scheduler transition to this "
                             "write-ahead log (enables fleet resume); "
                             "implied by fleet resume itself")
    parser.add_argument("--checkpoint-dir", default="",
                        help="workers write per-job checkpoints here; "
                             "retries resume from them instead of t=0")
    parser.add_argument("--checkpoint-events", type=int, default=0,
                        help="checkpoint cadence in simulation events "
                             "(default 20000 when --checkpoint-dir is "
                             "set and no cadence is given)")
    parser.add_argument("--checkpoint-interval", type=float,
                        default=0.0,
                        help="checkpoint cadence in wall seconds")
    parser.add_argument("--status-out", default="",
                        help="write the final /api/fleet JSON here "
                             "(atomically)")
    parser.add_argument("--metrics-out", default="",
                        help="write one federated /metrics scrape here "
                             "(atomically)")
    parser.add_argument("--historian", default="",
                        help="record the campaign (metric snapshots, "
                             "job outcomes, post-mortems, alerts) into "
                             "this SQLite historian database")
    parser.add_argument("--campaign", default="",
                        help="campaign id in the historian database "
                             "(default: generated from the wall clock)")
    parser.add_argument("--historian-interval", type=float, default=0.5,
                        help="historian sampling cadence in wall "
                             "seconds (default 0.5)")
    parser.add_argument("--profile", action="store_true",
                        help="run every worker under the continuous "
                             "profiler; per-job attribution summaries "
                             "ride the control channel into "
                             "/api/fleet/profile (and the historian)")
    parser.add_argument("--profile-interval", type=float, default=0.02,
                        help="worker profiler sampling interval in "
                             "seconds (default 0.02)")
    parser.add_argument("--profile-out", default="",
                        help="write the merged campaign profile as a "
                             "speedscope JSON file here (atomically); "
                             "implies --profile")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AkitaRTM reproduction: monitored GPU simulations")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one benchmark")
    run.add_argument("workload", choices=_RUNNABLE,
                     help="benchmark to execute")
    run.add_argument("--chiplets", type=int, default=2,
                     help="number of GPU chiplets (default 2)")
    run.add_argument("--full-scale", action="store_true",
                     help="use the paper's R9-Nano chiplets (64 CUs "
                          "each) instead of the scaled configuration")
    run.add_argument("--shards", type=int, default=1,
                     help="partition the platform across N worker "
                          "processes with conservative time-window "
                          "sync (default 1: in-process)")
    run.add_argument("--monitor", action="store_true",
                     help="attach AkitaRTM and print the dashboard URL")
    run.add_argument("--port", type=int, default=0,
                     help="dashboard port (default: ephemeral)")
    run.add_argument("--buggy-l2", action="store_true",
                     help="enable case study 2's write-buffer bug")
    run.add_argument("--hang-wait", type=float, default=0.0,
                     help="seconds to keep a hung simulation alive for "
                          "debugging (default 0: exit on hang)")
    run.add_argument("--progress-interval", type=float, default=1.0,
                     help="seconds between progress lines (default 1)")

    demo = sub.add_parser(
        "demo", help="serve the problematic im2col simulation")
    demo.add_argument("--port", type=int, default=0)
    demo.add_argument("--duration", type=float, default=0.0,
                      help="stop after N wall seconds (default: until "
                           "the simulation finishes or Ctrl-C)")

    study = sub.add_parser("study", help="run the scripted user study")
    study.add_argument("--think-time", type=float, default=0.01,
                       help="participant think time per action")
    study.add_argument("--report", type=str, default="",
                       help="write a markdown report to this path")

    trace = sub.add_parser(
        "trace", help="record a message/task trace of one benchmark")
    trace.add_argument("workload", choices=sorted(SUITE),
                       help="benchmark to execute")
    trace.add_argument("--chiplets", type=int, default=2,
                       help="number of GPU chiplets (default 2)")
    trace.add_argument("--buggy-l2", action="store_true",
                       help="enable case study 2's write-buffer bug")
    trace.add_argument("--backend", choices=("ring", "sqlite"),
                       default="ring",
                       help="trace store (default: in-memory ring)")
    trace.add_argument("--capacity", type=int, default=65536,
                       help="ring capacity in events (default 65536)")
    trace.add_argument("--db", type=str, default="",
                       help="SQLite file for --backend sqlite")
    trace.add_argument("--include", type=str, default="",
                       help="component-name regex; others untraced")
    trace.add_argument("--out", type=str, default="",
                       help="export file (default: no export)")
    trace.add_argument("--format", choices=("jsonl", "perfetto"),
                       default="perfetto",
                       help="export format for --out (default perfetto)")
    trace.add_argument("--hang-wait", type=float, default=0.0,
                       help="seconds to keep a hung simulation alive "
                            "(default 0: exit on hang — the trace is "
                            "still exported)")

    metrics = sub.add_parser(
        "metrics",
        help="run a benchmark and dump the Prometheus exposition")
    metrics.add_argument("workload", choices=sorted(SUITE),
                         help="benchmark to execute")
    metrics.add_argument("--chiplets", type=int, default=2,
                         help="number of GPU chiplets (default 2)")
    metrics.add_argument("--buggy-l2", action="store_true",
                         help="enable case study 2's write-buffer bug")
    metrics.add_argument("--out", type=str, default="",
                         help="write the exposition here instead of "
                              "stdout")
    metrics.add_argument("--hang-wait", type=float, default=0.0,
                         help="seconds to keep a hung simulation alive "
                              "(default 0: exit on hang — metrics are "
                              "still dumped)")

    profile = sub.add_parser(
        "profile",
        help="continuous profiling: record, report, export, diff")
    profile_sub = profile.add_subparsers(dest="profile_command",
                                         required=True)

    prof_record = profile_sub.add_parser(
        "record", help="run one monitored benchmark under the "
                       "continuous profiler and write its summary")
    prof_record.add_argument("workload", choices=sorted(SUITE),
                             help="benchmark to execute")
    prof_record.add_argument("--chiplets", type=int, default=2,
                             help="number of GPU chiplets (default 2)")
    prof_record.add_argument("--buggy-l2", action="store_true",
                             help="enable case study 2's write-buffer "
                                  "bug")
    prof_record.add_argument("--interval", type=float, default=0.02,
                             help="sampling interval in seconds "
                                  "(default 0.02)")
    prof_record.add_argument("--window", type=float, default=1.0,
                             help="rolling window length in seconds "
                                  "(default 1.0)")
    prof_record.add_argument("--server", action="store_true",
                             help="also start the dashboard server so "
                                  "its threads appear in the profile")
    prof_record.add_argument("--out", required=True,
                             help="write the summary JSON here "
                                  "(atomically)")

    prof_report = profile_sub.add_parser(
        "report", help="print the layer/function attribution of a "
                       "recorded summary")
    prof_report.add_argument("summary", help="summary JSON from "
                                             "profile record")
    prof_report.add_argument("--top", type=int, default=15,
                             help="function rows printed (default 15)")
    prof_report.add_argument("--json", action="store_true",
                             help="dump the raw summary document")

    prof_export = profile_sub.add_parser(
        "export", help="convert a recorded summary to a viewer format")
    prof_export.add_argument("summary", help="summary JSON from "
                                             "profile record")
    prof_export.add_argument("--format",
                             choices=("speedscope", "collapsed"),
                             default="speedscope",
                             help="output format (default speedscope)")
    prof_export.add_argument("--out", required=True,
                             help="write the export here (atomically)")

    prof_diff = profile_sub.add_parser(
        "diff", help="per-layer / per-function delta between two "
                     "recorded summaries")
    prof_diff.add_argument("a", help="baseline summary JSON")
    prof_diff.add_argument("b", help="candidate summary JSON")
    prof_diff.add_argument("--top", type=int, default=15,
                           help="function rows printed (default 15)")
    prof_diff.add_argument("--json", action="store_true",
                           help="dump the raw diff document")

    fleet = sub.add_parser(
        "fleet", help="orchestrate many monitored simulations")
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)

    fleet_run = fleet_sub.add_parser(
        "run", help="drain a workload x chiplets sweep through a "
                    "worker pool + gateway")
    fleet_run.add_argument("--workers", type=int, default=2,
                           help="worker pool size (default 2)")
    fleet_run.add_argument("--workloads", default="fir",
                           help="comma-separated workload names "
                                "(default fir; see workloads --json)")
    fleet_run.add_argument("--chiplets", default="1,2",
                           help="comma-separated chiplet counts, one "
                                "job per workload x count (default 1,2)")
    fleet_run.add_argument("--buggy-l2", action="store_true",
                           help="enable case study 2's write-buffer "
                                "bug in every job")
    fleet_run.add_argument("--worker-restarts", type=int, default=None,
                           help="crashed warm workers replaced before "
                                "the pool gives up (default: one per "
                                "worker slot)")
    fleet_run.add_argument("--max-retries", type=int, default=1,
                           help="restart-policy budget per job "
                                "(default 1)")
    fleet_run.add_argument("--crash-first", action="store_true",
                           help="arm a stall fault on the first job's "
                                "first attempt (restart-policy demo)")
    _add_fleet_common(fleet_run)

    fleet_resume = fleet_sub.add_parser(
        "resume", help="rebuild a crashed campaign from its journal "
                       "and finish it exactly-once")
    fleet_resume.add_argument("journal_path", metavar="journal",
                              help="the campaign's --journal file")
    fleet_resume.add_argument("--workers", type=int, default=2,
                              help="worker pool size (default 2)")
    fleet_resume.add_argument("--worker-restarts", type=int,
                              default=None,
                              help="crashed warm workers replaced "
                                   "before the pool gives up")
    _add_fleet_common(fleet_resume)

    fleet_status = fleet_sub.add_parser(
        "status", help="query a running gateway")
    fleet_status.add_argument("--url", required=True,
                              help="gateway base URL")
    fleet_status.add_argument("--json", action="store_true",
                              help="dump the raw /api/fleet document")

    historian = sub.add_parser(
        "historian",
        help="query a campaign historian database")
    hist_sub = historian.add_subparsers(dest="historian_command",
                                        required=True)

    hist_list = hist_sub.add_parser(
        "list", help="campaigns in the database")
    hist_list.add_argument("db", help="historian SQLite file")
    hist_list.add_argument("--json", action="store_true")

    hist_show = hist_sub.add_parser(
        "show", help="one campaign's jobs, post-mortems and alerts")
    hist_show.add_argument("db", help="historian SQLite file")
    hist_show.add_argument("campaign", help="campaign id")
    hist_show.add_argument("--json", action="store_true")

    hist_compare = hist_sub.add_parser(
        "compare", help="diff two campaigns' metric families "
                        "(regression report)")
    hist_compare.add_argument("db", help="historian SQLite file")
    hist_compare.add_argument("a", nargs="?", default="",
                              help="baseline campaign id (default: "
                                   "second-newest)")
    hist_compare.add_argument("b", nargs="?", default="",
                              help="candidate campaign id (default: "
                                   "newest)")
    hist_compare.add_argument("--json", action="store_true",
                              help="dump the raw comparison document")
    hist_compare.add_argument("--out", default="",
                              help="also write the comparison JSON "
                                   "here (atomically)")
    hist_compare.add_argument("--top", type=int, default=15,
                              help="family rows printed (default 15)")

    hist_prune = hist_sub.add_parser(
        "prune", help="apply retention policies and delete "
                      "out-of-policy records")
    hist_prune.add_argument("db", help="historian SQLite file")
    hist_prune.add_argument("--kind", default="",
                            help="restrict to one record kind "
                                 "(default: every kind)")
    hist_prune.add_argument("--max-age", type=float, default=None,
                            help="delete records older than this many "
                                 "wall seconds")
    hist_prune.add_argument("--max-count", type=int, default=None,
                            help="keep only the newest N records per "
                                 "kind")

    workloads = sub.add_parser("workloads",
                               help="list available benchmarks")
    workloads.add_argument("--json", action="store_true",
                           help="machine-readable catalog (name, "
                                "params, defaults) — the contract "
                                "fleet jobs are validated against")
    return parser


class _GracefulShutdown:
    """SIGTERM/SIGINT → stop the engine, let the caller flush and exit 0.

    A fleet manager terminates its workers with SIGTERM; an operator
    uses Ctrl-C.  Either way the run must wind down cleanly — abort the
    simulation, flush whatever the command exports — and report success:
    being told to stop is not a failure.  Handlers are restored on
    ``__exit__`` so library callers (tests invoke :func:`main`
    in-process) don't leak process-wide state.
    """

    def __init__(self, simulation):
        self._simulation = simulation
        self._previous = {}
        self.requested = False

    def _handle(self, signum, frame):  # noqa: ARG002 (signal signature)
        self.requested = True
        self._simulation.abort()

    def __enter__(self) -> "_GracefulShutdown":
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._previous[signum] = signal.signal(signum,
                                                       self._handle)
            except ValueError:
                pass  # not the main thread: run unguarded
        return self

    def __exit__(self, *exc_info) -> None:
        for signum, handler in self._previous.items():
            signal.signal(signum, handler)


def _cmd_run(args: argparse.Namespace) -> int:
    if args.full_scale:
        config = GPUPlatformConfig.r9_nano_mcm(
            num_chiplets=args.chiplets,
            l2_write_buffer_bug=args.buggy_l2)
        workload = (SUITE[args.workload]() if args.workload in SUITE
                    else StoreStorm())
    else:
        config = GPUPlatformConfig.small(
            num_chiplets=args.chiplets,
            l2_write_buffer_bug=args.buggy_l2)
        workload = suite_small().get(args.workload) or StoreStorm()
    if args.shards > 1:
        return _run_sharded(args, config, workload)
    platform = GPUPlatform(config)
    run = workload.enqueue(platform.driver)

    monitor: Optional[Monitor] = None
    if args.monitor:
        monitor = Monitor(platform.simulation)
        monitor.attach_driver(platform.driver)
        monitor.start_sampler()
        print(f"AkitaRTM dashboard: "
              f"{monitor.start_server(port=args.port)}")

    result = {}
    thread = threading.Thread(
        target=lambda: result.setdefault(
            "ok", platform.run(hang_wait=args.hang_wait)))
    start = time.monotonic()
    with _GracefulShutdown(platform.simulation) as shutdown:
        thread.start()
        last_wall, last_events = start, 0
        while thread.is_alive():
            thread.join(timeout=args.progress_interval)
            kernel = run.kernels[0]
            state = platform.simulation.run_state
            wall = time.monotonic()
            events = platform.engine.event_count
            kips = metrics_rate(events - last_events,
                                wall - last_wall) / 1000.0
            last_wall, last_events = wall, events
            print(f"t={platform.simulation.now * 1e6:9.2f}us "
                  f"state={state:9s} "
                  f"wgs={kernel.completed}/{kernel.total} "
                  f"{kips:8.1f} kevents/s")
            if state == "hung" and args.hang_wait == 0.0:
                break
        thread.join()
    elapsed = time.monotonic() - start
    ok = result.get("ok", False)
    state = ("interrupted" if shutdown.requested
             else "completed" if ok
             else platform.simulation.run_state)
    print(f"{state} "
          f"in {elapsed:.1f}s wall, "
          f"{platform.simulation.now * 1e6:.2f}us simulated, "
          f"{platform.engine.event_count:,} events")
    if monitor is not None:
        monitor.stop_server()  # flushes exports before exit
    if shutdown.requested:
        print("shutdown signal honoured: engine stopped, "
              "exports flushed")
        return 0
    return 0 if ok else 1


def _run_sharded(args: argparse.Namespace, config, workload) -> int:
    """``repro run --shards N``: the conservative-sync sharded mode.

    The coordinator's gateway (``--monitor``) federates every shard's
    AkitaRTM dashboard behind one URL; progress lines sum the shards'
    local workgroup counts (exact — each workgroup runs on exactly one
    shard)."""
    from .shard import ShardCoordinator
    coordinator = ShardCoordinator(config, workload, args.shards,
                                   monitor=args.monitor,
                                   port=args.port)
    box: dict = {}

    def _drive() -> None:
        try:
            box["result"] = coordinator.run()
        except Exception as exc:  # noqa: BLE001 - reported below
            box["error"] = exc

    thread = threading.Thread(target=_drive)
    start = time.monotonic()
    thread.start()
    if args.monitor:
        while thread.is_alive() and coordinator.dashboard_url is None:
            time.sleep(0.05)
        if coordinator.dashboard_url:
            print(f"AkitaRTM federated dashboard: "
                  f"{coordinator.dashboard_url}")
    while thread.is_alive():
        thread.join(timeout=args.progress_interval)
        if not thread.is_alive():
            break
        bars = coordinator.merged_progress()
        done = sum(b["completed"] for b in bars)
        total = sum(b["total"] for b in bars)
        status = coordinator.shard_status()
        print(f"shards={args.shards} "
              f"windows={status['windows']:,} wgs={done}/{total}")
    thread.join()
    coordinator.close()
    if "error" in box:
        print(f"error: {box['error']}", file=sys.stderr)
        return 1
    result = box["result"]
    elapsed = time.monotonic() - start
    print(f"{'completed' if result.completed else 'hung'} "
          f"in {elapsed:.1f}s wall, "
          f"{result.sim_time * 1e6:.2f}us simulated, "
          f"{result.events:,} events on {result.num_shards} shards, "
          f"{result.windows:,} windows, "
          f"{result.boundary_messages:,} boundary messages")
    return 0 if result.completed else 1


def _cmd_demo(args: argparse.Namespace) -> int:
    platform = GPUPlatform(problem_platform_config())
    monitor = Monitor(platform.simulation)
    monitor.attach_driver(platform.driver)
    monitor.start_sampler()
    problem_workload().enqueue(platform.driver)
    url = monitor.start_server(port=args.port)
    print(f"AkitaRTM dashboard: {url}")
    print("Serving the congested im2col simulation of case study 1. "
          "Open the URL and explore; Ctrl-C to stop.")
    thread = threading.Thread(
        target=lambda: platform.run(hang_wait=3600.0), daemon=True)
    thread.start()
    deadline = (time.monotonic() + args.duration) if args.duration \
        else None
    try:
        while thread.is_alive():
            if deadline is not None and time.monotonic() > deadline:
                break
            time.sleep(0.2)
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass
    platform.simulation.abort()
    thread.join(timeout=30)
    monitor.stop_server()
    print("demo stopped")
    return 0


def _cmd_study(args: argparse.Namespace) -> int:
    result = run_study(think_time=args.think_time)
    print("successful participants:",
          ", ".join(result.successful_participants))
    print("most used feature:", result.most_used_feature)
    print("least used feature:", result.least_used_feature)
    print()
    print(result.survey.format())
    print()
    print("matches paper Figure 6:", result.matches_paper_figure6())
    if args.report:
        import pathlib
        pathlib.Path(args.report).write_text(result.format_report())
        print(f"report written to {args.report}")
    return 0 if result.matches_paper_figure6() else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from .trace import RingStore, SQLiteStore, Tracer, export_events
    config = GPUPlatformConfig.small(
        num_chiplets=args.chiplets,
        l2_write_buffer_bug=args.buggy_l2)
    workload = suite_small()[args.workload]
    platform = GPUPlatform(config)
    workload.enqueue(platform.driver)

    if args.backend == "sqlite":
        if not args.db:
            print("error: --backend sqlite needs --db", file=sys.stderr)
            return 2
        store = SQLiteStore(args.db)
    else:
        store = RingStore(args.capacity)
    tracer = Tracer(platform.simulation, store,
                    include=args.include or None)
    tracer.start()
    try:
        ok = platform.run(hang_wait=args.hang_wait)
    finally:
        # A hung run still has a story to tell: stop (flushes), export.
        tracer.stop()
    state = "completed" if ok else platform.simulation.run_state
    stats = store.stats()
    print(f"{state}: {stats['recorded']:,} events recorded "
          f"({stats.get('dropped', 0):,} dropped), "
          f"t={platform.simulation.now * 1e6:.2f}us")
    if args.out:
        export_events(store.query(limit=0), args.format, args.out)
        print(f"wrote {args.format} trace to {args.out}")
    elif args.backend == "sqlite":
        print(f"trace database: {args.db}")
    tracer.close()
    return 0 if ok else 1


def _cmd_metrics(args: argparse.Namespace) -> int:
    from .metrics import SimMetrics, expose
    config = GPUPlatformConfig.small(
        num_chiplets=args.chiplets,
        l2_write_buffer_bug=args.buggy_l2)
    workload = suite_small()[args.workload]
    platform = GPUPlatform(config)
    workload.enqueue(platform.driver)

    sim_metrics = SimMetrics(platform.simulation)
    sim_metrics.start()
    try:
        ok = platform.run(hang_wait=args.hang_wait)
    finally:
        # A hung run's final counters are exactly what to look at.
        sim_metrics.stop()
    state = "completed" if ok else platform.simulation.run_state
    text = expose(sim_metrics.registry)
    if args.out:
        import pathlib
        pathlib.Path(args.out).write_text(text)
        print(f"{state}: wrote exposition "
              f"({len(sim_metrics.registry.names)} families) "
              f"to {args.out}")
    else:
        print(text, end="")
        print(f"# run {state}, "
              f"t={platform.simulation.now * 1e6:.2f}us",
              file=sys.stderr)
    return 0 if ok else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    handler = {
        "record": _profile_record,
        "report": _profile_report,
        "export": _profile_export,
        "diff": _profile_diff,
    }[args.profile_command]
    return handler(args)


def _load_summary(path: str) -> dict:
    import pathlib
    try:
        return json.loads(pathlib.Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: cannot read summary {path}: {exc}")


def _print_summary(summary: dict, top: int) -> None:
    sampled = summary.get("sampled_seconds", 0.0)
    print(f"duration {summary.get('duration', 0.0):.2f}s wall, "
          f"{summary.get('samples', 0)} samples, "
          f"{sampled:.2f}s attributed"
          + (f" across {summary['jobs']} jobs"
             if summary.get("jobs") else ""))
    print("layers:")
    for layer, seconds in summary.get("layers", {}).items():
        share = (seconds / sampled * 100.0) if sampled else 0.0
        print(f"  {layer:10s} {seconds:9.3f}s  {share:5.1f}%")
    print(f"top functions (self time):")
    for fn in summary.get("functions", [])[:max(0, top)]:
        print(f"  {fn['self']:8.3f}s self {fn['total']:8.3f}s total "
              f"[{fn.get('layer', 'other'):8s}] {fn['name']} "
              f"({fn['file']}:{fn['line']})")


def _profile_record(args: argparse.Namespace) -> int:
    from .core.atomicio import atomic_write_json
    config = GPUPlatformConfig.small(
        num_chiplets=args.chiplets,
        l2_write_buffer_bug=args.buggy_l2)
    workload = suite_small()[args.workload]
    platform = GPUPlatform(config)
    workload.enqueue(platform.driver)

    monitor = Monitor(platform.simulation)
    monitor.attach_driver(platform.driver)
    monitor.ensure_sim_metrics().start()
    monitor.start_sampler()
    if args.server:
        print(f"AkitaRTM dashboard: {monitor.start_server()}")
    profiler = monitor.start_continuous_profiling(
        interval=args.interval, window_seconds=args.window)
    try:
        ok = platform.run(hang_wait=0.0)
    finally:
        # A hung run's profile is exactly what to look at: stop the
        # sampling thread first so the summary is a settled snapshot.
        profiler.stop()
        summary = profiler.summary()
        if args.server:
            monitor.stop_server()
        else:
            monitor.stop_sampler()
            monitor.ensure_sim_metrics().stop()
    state = "completed" if ok else platform.simulation.run_state
    atomic_write_json(args.out, summary)
    print(f"{state}: {summary['samples']} samples over "
          f"{summary['duration']:.2f}s wall; wrote summary to "
          f"{args.out}")
    _print_summary(summary, top=5)
    return 0 if ok else 1


def _profile_report(args: argparse.Namespace) -> int:
    summary = _load_summary(args.summary)
    if args.json:
        print(json.dumps(summary, indent=2, default=str))
        return 0
    _print_summary(summary, top=args.top)
    return 0


def _profile_export(args: argparse.Namespace) -> int:
    from .core.atomicio import atomic_write_json, atomic_write_text
    from .profile import (collapsed_stacks, speedscope_document,
                          summary_stack_map)
    summary = _load_summary(args.summary)
    stacks = summary_stack_map(summary)
    if not stacks:
        print(f"error: {args.summary} holds no stacks to export",
              file=sys.stderr)
        return 1
    if args.format == "collapsed":
        atomic_write_text(args.out, collapsed_stacks(stacks))
    else:
        atomic_write_json(args.out, speedscope_document(
            stacks, name=f"repro profile: {args.summary}"))
    print(f"wrote {args.format} export to {args.out}")
    return 0


def _profile_diff(args: argparse.Namespace) -> int:
    from .profile import diff_summaries
    diff = diff_summaries(_load_summary(args.a), _load_summary(args.b),
                          top=args.top)
    if args.json:
        print(json.dumps(diff, indent=2, default=str))
        return 0
    print(f"profile diff: {args.a} vs {args.b}")
    _print_profile_diff(diff, top=args.top, indent="")
    return 0


def _print_profile_diff(diff: dict, top: int, indent: str) -> None:
    """Shared renderer for ``profile diff`` and the profile section of
    ``historian compare``."""
    duration = diff.get("duration", {})
    sampled = diff.get("sampled_seconds", {})
    print(f"{indent}wall {duration.get('a', 0.0):.2f}s -> "
          f"{duration.get('b', 0.0):.2f}s, attributed "
          f"{sampled.get('a', 0.0):.2f}s -> {sampled.get('b', 0.0):.2f}s")
    print(f"{indent}layers (by |delta|):")
    for layer, entry in diff.get("layers", {}).items():
        ratio = entry.get("ratio")
        print(f"{indent}  {layer:10s} {entry['a']:9.3f}s -> "
              f"{entry['b']:9.3f}s  ({entry['delta']:+9.3f}s"
              f"{', x%.3f' % ratio if ratio is not None else ''})")
    moved = [fn for fn in diff.get("functions", []) if fn.get("delta")]
    if moved:
        print(f"{indent}functions that moved most (self time):")
    for fn in moved[:max(0, top)]:
        print(f"{indent}  {fn['delta']:+8.3f}s "
              f"[{fn.get('layer', 'other'):8s}] {fn['name']} "
              f"({fn['file']})")


def _cmd_fleet(args: argparse.Namespace) -> int:
    if args.fleet_command == "status":
        return _fleet_status(args)
    if args.fleet_command == "resume":
        return _fleet_resume(args)
    return _fleet_run(args)


def _fleet_status(args: argparse.Namespace) -> int:
    from .core import RTMClient, RTMConnectionError
    client = RTMClient(args.url)
    try:
        status = client.fleet_status()
    except RTMConnectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(status, indent=2, default=str))
        return 0
    summary = status.get("summary", {})
    print(f"gateway {status.get('gateway_url', args.url)}: "
          f"{'drained' if status.get('drained') else 'running'}, "
          f"{summary.get('completed', 0)} completed / "
          f"{summary.get('failed', 0)} failed / "
          f"{summary.get('running', 0)} running / "
          f"{summary.get('queued', 0)} queued "
          f"({summary.get('retries', 0)} retries)")
    for worker in status.get("workers", []):
        print(f"  {worker['worker_id']:4s} {worker['state']:8s} "
              f"job={worker['job_id']} attempt={worker['attempt']} "
              f"url={worker.get('url') or '-'}")
    return 0


def _fleet_worker_args(args: argparse.Namespace) -> List[str]:
    """Checkpoint and profiling flags forwarded to every worker
    process.  A checkpoint dir with no cadence defaults to an event
    cadence — a dir alone clearly means "I want checkpoints"."""
    extra: List[str] = []
    if args.checkpoint_dir:
        extra += ["--checkpoint-dir", args.checkpoint_dir]
        events = args.checkpoint_events
        if events <= 0 and args.checkpoint_interval <= 0:
            events = 20_000
        if events > 0:
            extra += ["--checkpoint-events", str(events)]
        if args.checkpoint_interval > 0:
            extra += ["--checkpoint-interval",
                      str(args.checkpoint_interval)]
    if args.profile or args.profile_out:
        extra += ["--profile",
                  "--profile-interval", str(args.profile_interval)]
    return extra


class _FleetShutdown:
    """SIGTERM/SIGINT → drain the campaign gracefully.

    The handler only flags the request; the campaign wait loop notices,
    stops dispatching, lets the manager flush worker results, and —
    when a journal is attached — compacts it into a clean snapshot.
    Being told to stop is not a failure (exit 0), and the journal left
    behind is immediately resumable.
    """

    def __init__(self):
        self.requested = False
        self._event = threading.Event()
        self._previous = {}

    def _handle(self, signum, frame):  # noqa: ARG002 (signal signature)
        self.requested = True
        self._event.set()

    def __enter__(self) -> "_FleetShutdown":
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._previous[signum] = signal.signal(signum,
                                                       self._handle)
            except ValueError:
                pass  # not the main thread: run unguarded
        return self

    def __exit__(self, *exc_info) -> None:
        for signum, handler in self._previous.items():
            signal.signal(signum, handler)

    def wait_drained(self, manager, timeout: float) -> bool:
        """Small-step wait so a signal is honoured within ~0.2 s."""
        deadline = time.monotonic() + timeout
        while not self.requested:
            if manager.drained.wait(timeout=0.2):
                return True
            if time.monotonic() > deadline:
                return False
        return False


def _drive_campaign(args: argparse.Namespace, manager, journal,
                    num_jobs: int) -> int:
    """Start gateway + manager, wait for the queue to drain (or a
    signal / the wall bound), harvest, persist artifacts atomically,
    and settle the exit code.  Shared by ``fleet run`` and ``fleet
    resume``."""
    from .core import RTMClient
    from .core.atomicio import atomic_write_json, atomic_write_text
    from .fleet import FleetGateway, replay_journal

    gateway = FleetGateway(manager, port=args.port)
    historian = service = None
    if getattr(args, "historian", ""):
        from .historian import Historian, HistorianService
        historian = Historian(args.historian)
        service = HistorianService(
            historian, campaign_id=args.campaign or None,
            manager=manager, interval=args.historian_interval,
            meta={"workers": args.workers, "jobs": num_jobs})
        service.bind_gateway(gateway)
    gateway.start()
    manager.start()
    if service is not None:
        service.start()
    print(f"fleet gateway: {gateway.url}  "
          f"({num_jobs} jobs, {args.workers} warm workers)")
    if journal is not None:
        print(f"campaign journal: {journal.path}")
    if service is not None:
        print(f"historian: {args.historian} "
              f"campaign {service.campaign_id}")
    with _FleetShutdown() as shutdown:
        try:
            drained = shutdown.wait_drained(manager, args.timeout)
            # Harvest through the gateway's public API, like any client
            # would — this is the paper's single pane of glass.
            client = RTMClient(gateway.url)
            status = client.fleet_status()
            metrics_text = client.metrics_text()
            profile_doc = None
            if args.profile_out:
                # The gateway dies with this process: render the merged
                # campaign speedscope document while it is still up.
                profile_doc = client.fleet_profile(format="speedscope")
        finally:
            manager.stop()
            if service is not None:
                # Final harvest after the manager settled every job,
                # while the finals cache is still warm.
                service.stop()
            gateway.stop()
            if historian is not None:
                historian.close()
            if journal is not None:
                # Workers torn down by stop() journaled their fates
                # above; compact everything into one clean snapshot so
                # a resume replays a single record, not the full WAL.
                journal.append(
                    "campaign", critical=True,
                    action=("drained" if manager.drained.is_set()
                            else "sigterm-drain" if shutdown.requested
                            else "timeout"))
                journal.compact(replay_journal(journal.path))
                journal.close()

    if args.status_out:
        atomic_write_json(args.status_out, status)
        print(f"wrote fleet status to {args.status_out}")
    if args.metrics_out:
        atomic_write_text(args.metrics_out, metrics_text)
        print(f"wrote federated metrics to {args.metrics_out}")
    if args.profile_out and profile_doc is not None:
        atomic_write_json(args.profile_out, profile_doc)
        print(f"wrote campaign speedscope profile to "
              f"{args.profile_out}")

    summary = status.get("summary", {})
    for job in status.get("jobs", []):
        workers = ",".join(job.get("workers", [])) or "-"
        print(f"  {job['spec']['job_id']:16s} {job['state']:9s} "
              f"attempts={job.get('attempt', 0) + 1} "
              f"workers={workers}")
    if shutdown.requested:
        print(f"interrupted: campaign drained gracefully"
              f"{' and journaled' if journal is not None else ''}; "
              f"{summary.get('completed', 0)} completed so far")
        return 0  # being told to stop is not a failure
    print(f"{'drained' if drained else 'TIMEOUT'}: "
          f"{summary.get('completed', 0)} completed, "
          f"{summary.get('failed', 0)} failed, "
          f"{summary.get('retries', 0)} retries")
    # A campaign succeeds only if it drained and every job completed:
    # failed, still-queued or still-running jobs all mean the exit code
    # must be non-zero (a CI gate reads this).
    ok = drained and not summary.get("failed", 0) \
        and not summary.get("queued", 0) and not summary.get("running", 0)
    return 0 if ok else 1


def _fleet_run(args: argparse.Namespace) -> int:
    from .fleet import (CampaignJournal, FleetManager, JobQueue, JobSpec,
                        workload_catalog)

    workloads = [w.strip() for w in args.workloads.split(",") if w.strip()]
    chiplets = [int(c) for c in args.chiplets.split(",") if c.strip()]
    if not workloads or not chiplets:
        print("error: need at least one workload and one chiplet count",
              file=sys.stderr)
        return 2
    catalog = workload_catalog()
    unknown = sorted(set(workloads) - set(catalog))
    if unknown:
        print(f"error: unknown workloads {', '.join(unknown)} "
              f"(see: repro workloads --json)", file=sys.stderr)
        return 2

    specs = []
    for workload in workloads:
        for count in chiplets:
            specs.append(JobSpec(f"{workload}-c{count}", workload,
                                 chiplets=count, buggy_l2=args.buggy_l2,
                                 max_retries=args.max_retries))
    if args.crash_first:
        # Restart-policy demo: stall the first job's first attempt; the
        # watchdog aborts it and the retry runs clean.
        specs[0].fault = {"kind": "stall", "target": "*WriteBuffer*",
                          "start": 5e-7}

    queue = JobQueue()
    journal = None
    if args.journal:
        journal = CampaignJournal(args.journal)
        journal.attach(queue)  # before submit: submissions are records
        journal.append("campaign", critical=True, action="start",
                       workers=args.workers, jobs=len(specs))
    queue.submit_all(specs)
    manager = FleetManager(queue, num_workers=args.workers,
                           max_worker_restarts=args.worker_restarts,
                           worker_args=_fleet_worker_args(args),
                           journal=journal)
    return _drive_campaign(args, manager, journal, len(specs))


def _fleet_resume(args: argparse.Namespace) -> int:
    from .fleet import CampaignJournal, FleetManager, replay_journal

    try:
        replay = replay_journal(args.journal_path)
    except OSError as exc:
        print(f"error: cannot read journal: {exc}", file=sys.stderr)
        return 2
    if not replay.jobs:
        print(f"error: {args.journal_path} holds no jobs "
              f"({replay.records} records, "
              f"{replay.corrupt_records} corrupt)", file=sys.stderr)
        return 2

    counts = replay.counts()
    damage = []
    if replay.torn_tail:
        damage.append("torn tail")
    if replay.corrupt_records:
        damage.append(f"{replay.corrupt_records} corrupt record(s)")
    print(f"replayed {replay.records} journal records: "
          f"{counts['completed']} completed, {counts['failed']} failed, "
          f"{counts['queued'] + counts['running']} to run"
          + (f"  [{', '.join(damage)}]" if damage else ""))

    queue, resumed = replay.build_queue()
    for job_id in resumed:
        print(f"  resuming {job_id}"
              + (f" from checkpoint t="
                 f"{replay.checkpoints[job_id].get('sim_time')}"
                 if job_id in replay.checkpoints else " cold"))

    # Compact before running: the rebuilt state becomes the journal's
    # baseline snapshot, and this campaign's records append after it.
    journal = CampaignJournal(args.journal_path)
    journal.compact(replay)
    journal.append("campaign", critical=True, action="resume",
                   workers=args.workers, resumed_jobs=len(resumed))
    journal.attach(queue)
    manager = FleetManager(queue, num_workers=args.workers,
                           max_worker_restarts=args.worker_restarts,
                           worker_args=_fleet_worker_args(args),
                           journal=journal)
    manager.preload_resume(replay)
    return _drive_campaign(args, manager, journal, len(replay.jobs))


def _cmd_historian(args: argparse.Namespace) -> int:
    handler = {
        "list": _historian_list,
        "show": _historian_show,
        "compare": _historian_compare,
        "prune": _historian_prune,
    }[args.historian_command]
    from .historian import Historian
    historian = Historian(args.db)
    try:
        return handler(args, historian)
    finally:
        historian.close()


def _historian_list(args: argparse.Namespace, historian) -> int:
    campaigns = historian.campaigns()
    if args.json:
        print(json.dumps(campaigns, indent=2, default=str))
        return 0
    if not campaigns:
        print(f"{args.db}: no campaigns recorded")
        return 0
    for campaign in campaigns:
        records = campaign["records"]
        state = "open" if campaign["finished_wall"] is None else "closed"
        print(f"{campaign['campaign_id']:24s} {state:6s} "
              f"{records.get('job', 0):4d} jobs "
              f"{records.get('snapshot', 0):5d} snapshots "
              f"{records.get('postmortem', 0):3d} post-mortems "
              f"{records.get('alert', 0):3d} alerts "
              f"{records.get('profile', 0):3d} profiles")
    stats = historian.stats()
    if stats["degraded"] or stats["corrupt_records"]:
        print(f"damage: degraded={stats['degraded']} "
              f"corrupt={stats['corrupt_records']} "
              f"read_errors={stats['read_errors']}")
    return 0


def _historian_show(args: argparse.Namespace, historian) -> int:
    jobs = historian.jobs(args.campaign)
    postmortems = historian.postmortems(args.campaign)
    alerts = historian.alerts(args.campaign)
    if args.json:
        print(json.dumps({"jobs": jobs, "postmortems": postmortems,
                          "alerts": alerts}, indent=2, default=str))
        return 0
    if not jobs and not postmortems and not alerts:
        print(f"error: no records for campaign "
              f"{args.campaign!r} in {args.db}", file=sys.stderr)
        return 1
    print(f"campaign {args.campaign}: {len(jobs)} jobs, "
          f"{len(postmortems)} post-mortems, {len(alerts)} alert "
          f"transitions")
    for record in jobs:
        payload = record["payload"]
        print(f"  {record['name']:16s} {payload.get('state', '?'):9s} "
              f"attempts={payload.get('attempt', 0) + 1} "
              f"worker={payload.get('worker_id') or '-'}")
    for record in postmortems:
        payload = record["payload"]
        watchdog = payload.get("watchdog") or {}
        print(f"  post-mortem {record['name']}: "
              f"verdict={watchdog.get('verdict') or '-'} "
              f"error={str(payload.get('error') or '-')[:60]}")
    for record in alerts:
        payload = record["payload"]
        print(f"  alert {payload.get('state'):8s} "
              f"{payload.get('name')} value={payload.get('value')}")
    return 0


def _historian_compare(args: argparse.Namespace, historian) -> int:
    a, b = args.a, args.b
    if not a or not b:
        campaigns = [c["campaign_id"] for c in historian.campaigns()]
        if len(campaigns) < 2:
            print("error: compare needs two campaigns (found "
                  f"{len(campaigns)})", file=sys.stderr)
            return 1
        a = a or campaigns[-2]
        b = b or campaigns[-1]
    report = historian.compare(a, b)
    if args.out:
        from .core.atomicio import atomic_write_json
        atomic_write_json(args.out, report)
    if args.json:
        print(json.dumps(report, indent=2, default=str))
        return 0
    print(f"historian compare: {a} vs {b}")
    for side in ("a", "b"):
        jobs = report[side]["jobs"]
        completed = sum(1 for j in jobs if j["state"] == "completed")
        print(f"  {report[side]['campaign_id']}: {len(jobs)} jobs "
              f"({completed} completed)")
        for job in jobs:
            print(f"    {job['job_id']:16s} {job['state'] or '?':9s} "
                  f"retries={job['retries']}")
    moved = [(name, entry) for name, entry in report["families"].items()
             if entry.get("delta") not in (None, 0.0)]
    moved.sort(key=lambda item: -abs(item[1]["delta"]))
    print(f"  {len(report['families'])} shared metric families, "
          f"{len(moved)} moved")
    for name, entry in moved[:max(0, args.top)]:
        ratio = entry.get("ratio")
        print(f"    {name:48s} {entry['a']:14.6g} -> "
              f"{entry['b']:14.6g}  "
              f"({'x%.3f' % ratio if ratio is not None else 'new'})")
    if report["only_a"]:
        print(f"  only in {a}: {', '.join(report['only_a'][:8])}")
    if report["only_b"]:
        print(f"  only in {b}: {', '.join(report['only_b'][:8])}")
    profile = report.get("profile")
    if profile:
        jobs_profiled = profile.get("jobs_profiled", {})
        print(f"  profile: {jobs_profiled.get('a', 0)} vs "
              f"{jobs_profiled.get('b', 0)} jobs profiled")
        _print_profile_diff(profile, top=args.top, indent="  ")
    if args.out:
        print(f"wrote comparison JSON to {args.out}")
    return 0


def _historian_prune(args: argparse.Namespace, historian) -> int:
    from .historian import RECORD_KINDS, RetentionPolicy
    if args.max_age is None and args.max_count is None:
        print("error: prune needs --max-age and/or --max-count",
              file=sys.stderr)
        return 2
    kinds = [args.kind] if args.kind else list(RECORD_KINDS)
    try:
        policies = [RetentionPolicy(kind, max_age=args.max_age,
                                    max_count=args.max_count)
                    for kind in kinds]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    deleted = historian.prune(policies)
    total = sum(deleted.values())
    detail = ", ".join(f"{kind}={count}"
                       for kind, count in sorted(deleted.items()))
    print(f"pruned {total} records" + (f" ({detail})" if detail else ""))
    return 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    if getattr(args, "json", False):
        import dataclasses
        from .fleet import workload_catalog
        catalog = []
        for name, workload in sorted(workload_catalog().items()):
            kernel = workload.kernel()
            catalog.append({
                "name": name,
                "type": type(workload).__name__,
                "params": {f.name: getattr(workload, f.name)
                           for f in dataclasses.fields(workload)},
                "workgroups": kernel.num_workgroups,
                "wavefronts_per_wg": kernel.wavefronts_per_wg,
                "input_bytes": workload.input_bytes(),
                "output_bytes": workload.output_bytes(),
            })
        print(json.dumps(catalog, indent=2))
        return 0
    for name, factory in sorted(SUITE.items()):
        workload = factory()
        kernel = workload.kernel()
        print(f"{name:8s} {type(workload).__name__:8s} "
              f"{kernel.num_workgroups:>5d} workgroups x "
              f"{kernel.wavefronts_per_wg} wavefronts, "
              f"{workload.input_bytes():>10,d} B in / "
              f"{workload.output_bytes():>10,d} B out")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    handler = {
        "run": _cmd_run,
        "demo": _cmd_demo,
        "study": _cmd_study,
        "trace": _cmd_trace,
        "metrics": _cmd_metrics,
        "profile": _cmd_profile,
        "fleet": _cmd_fleet,
        "historian": _cmd_historian,
        "workloads": _cmd_workloads,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
