"""Command-line interface: ``python -m repro <command>``.

This module is the registry, the plumbing every run-like command
shares, and the paper's own four commands:

* ``run``   — run one benchmark on a simulated GPU, optionally with the
  AkitaRTM dashboard attached (``--shards N`` partitions the platform);
* ``demo``  — start the paper's "problematic im2col" simulation and
  keep the dashboard up for interactive exploration;
* ``study`` — execute the scripted user study and print Figure 6;
* ``workloads`` — list every runnable workload at the size ``run``
  uses (``--json`` emits the machine-readable catalog fleet jobs are
  validated against).

Every other command lives in its plane's package and is one row of
:data:`SUBCOMMANDS`: a module whose ``register(subparsers)`` adds its
parsers and binds each to its handler with ``set_defaults(handler=…)``.

A run-like command is :func:`add_workload_arguments` +
:func:`~repro.workloads.build_platform` (which the fleet worker calls
too) (+ :func:`attach_monitor`) + :func:`~repro.akita.threads.run_guarded`,
which stops the engine on SIGTERM/SIGINT so the command flushes its
exports and exits 0; ``run --shards N`` drives its coordinator in the
same :func:`~repro.akita.threads.guarded`.  Bad input is one ``error: …``
line and exit 2.
"""

import argparse
import dataclasses
import json
import sys
import time
from importlib import import_module
from typing import List, Optional

from .akita.errors import ConfigurationError
from .akita.threads import (SignalGuard, guarded,  # noqa: F401 (planes)
                            run_guarded)
from .gpu import GPUPlatform
from .workloads import (WORKLOADS, build_platform, make_workload,
                        platform_config)

#: One module per plane that has a command line, in ``--help`` order.
SUBCOMMANDS = (
    "repro.trace.cli",
    "repro.metrics.cli",
    "repro.profile.cli",
    "repro.fleet.cli",
    "repro.historian.cli",
)


def add_workload_arguments(parser: argparse.ArgumentParser,
                           hang_wait: Optional[str] = None) -> None:
    """What a run-like command takes: a benchmark (the paper's suite or
    the StoreStorm diagnostic, the shard layer's reference workload),
    its platform and — given its help text *hang_wait* — ``--hang-wait``."""
    parser.add_argument("workload", choices=sorted(WORKLOADS),
                        help="benchmark to execute")
    parser.add_argument("--chiplets", type=int, default=2,
                        help="number of GPU chiplets (default 2)")
    parser.add_argument("--buggy-l2", action="store_true",
                        help="enable case study 2's write-buffer bug")
    if hang_wait is not None:
        parser.add_argument("--hang-wait", type=float, default=0.0,
                            help=hang_wait)


def attach_monitor(platform: GPUPlatform, port: Optional[int] = None):
    """A :class:`~repro.core.Monitor` on *platform*, its sampler running
    and — given a *port* (0: ephemeral) — its dashboard up and announced."""
    from .core import Monitor
    monitor = Monitor(platform.simulation)
    monitor.attach_driver(platform.driver)
    monitor.start_sampler()
    if port is not None:
        print(f"AkitaRTM dashboard: {monitor.start_server(port=port)}")
    return monitor


def usage_error(message: str) -> int:
    """Report input the command cannot run on; returns exit status 2."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AkitaRTM reproduction: monitored GPU simulations")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one benchmark")
    add_workload_arguments(
        run, hang_wait="seconds to keep a hung simulation alive for "
                       "debugging (default 0: exit on hang)")
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
    run.add_argument("--progress-interval", type=float, default=1.0,
                     help="seconds between progress lines (default 1)")
    run.set_defaults(handler=_cmd_run)

    demo = sub.add_parser(
        "demo", help="serve the problematic im2col simulation")
    demo.add_argument("--port", type=int, default=0)
    demo.add_argument("--duration", type=float, default=0.0,
                      help="stop after N wall seconds (default: until "
                           "the simulation finishes or Ctrl-C)")
    demo.set_defaults(handler=_cmd_demo)

    study = sub.add_parser("study", help="run the scripted user study")
    study.add_argument("--think-time", type=float, default=0.01,
                       help="participant think time per action")
    study.add_argument("--report", type=str, default="",
                       help="write a markdown report to this path")
    study.set_defaults(handler=_cmd_study)

    for module in SUBCOMMANDS:
        import_module(module).register(sub)

    workloads = sub.add_parser("workloads",
                               help="list available benchmarks")
    workloads.add_argument("--json", action="store_true",
                           help="machine-readable catalog (name, "
                                "params, defaults) — the contract "
                                "fleet jobs are validated against")
    workloads.set_defaults(handler=_cmd_workloads)
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    if args.progress_interval <= 0:
        return usage_error("--progress-interval must be positive")
    if args.shards > 1:
        return _run_sharded(args)
    from .metrics import rate
    platform, run = build_platform(args.workload, args.chiplets,
                                   buggy_l2=args.buggy_l2,
                                   full_scale=args.full_scale)

    monitor = attach_monitor(platform, args.port) if args.monitor else None
    start = time.monotonic()
    last_wall, last_events = start, 0

    def progress() -> None:
        nonlocal last_wall, last_events
        kernel = run.kernels[0]
        wall, events = time.monotonic(), platform.engine.event_count
        kips = rate(events - last_events, wall - last_wall) / 1000.0
        last_wall, last_events = wall, events
        print(f"t={platform.simulation.now * 1e6:9.2f}us "
              f"state={platform.simulation.run_state:9s} "
              f"wgs={kernel.completed}/{kernel.total} "
              f"{kips:8.1f} kevents/s")

    ok, state = run_guarded(platform, args.hang_wait, progress=progress,
                            interval=args.progress_interval)
    print(f"{state} "
          f"in {time.monotonic() - start:.1f}s wall, "
          f"{platform.simulation.now * 1e6:.2f}us simulated, "
          f"{platform.engine.event_count:,} events")
    if monitor is not None:
        monitor.stop_server()  # flushes exports before exit
    if state == "interrupted":
        print("shutdown signal honoured: engine stopped, "
              "exports flushed")
    return 0 if ok else 1


def _run_sharded(args: argparse.Namespace) -> int:
    """``repro run --shards N``: the conservative-sync sharded mode.

    The coordinator's gateway (``--monitor``) federates every shard's
    AkitaRTM dashboard behind one URL; progress lines sum the shards'
    local workgroup counts (exact — each workgroup runs on exactly one
    shard)."""
    from .shard import ShardCoordinator
    coordinator = ShardCoordinator(
        platform_config(args.chiplets, buggy_l2=args.buggy_l2,
                        full_scale=args.full_scale),
        make_workload(args.workload, full_scale=args.full_scale),
        args.shards, monitor=args.monitor, port=args.port)
    announce = args.monitor

    def progress() -> None:
        nonlocal announce
        if announce:
            if coordinator.dashboard_url is None:
                return  # the shards are still booting
            print(f"AkitaRTM federated dashboard: "
                  f"{coordinator.dashboard_url}")
            announce = False
        bars = coordinator.merged_progress()
        done = sum(b["completed"] for b in bars)
        total = sum(b["total"] for b in bars)
        print(f"shards={args.shards} "
              f"windows={coordinator.shard_status()['windows']:,} "
              f"wgs={done}/{total}")

    start = time.monotonic()
    try:
        with guarded(coordinator.abort, progress=progress,
                     interval=args.progress_interval) as guard:
            result = coordinator.run()
    except Exception as exc:  # noqa: BLE001 - one error line
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        coordinator.close()
    state = ("interrupted" if guard.requested
             else "completed" if result.completed else "hung")
    print(f"{state} "
          f"in {time.monotonic() - start:.1f}s wall, "
          f"{result.sim_time * 1e6:.2f}us simulated, "
          f"{result.events:,} events on {result.num_shards} shards, "
          f"{result.windows:,} windows, "
          f"{result.boundary_messages:,} boundary messages")
    return 0 if state != "hung" else 1


def _cmd_demo(args: argparse.Namespace) -> int:
    from .studies import problem_platform_config, problem_workload
    platform = GPUPlatform(problem_platform_config())
    problem_workload().enqueue(platform.driver)
    monitor = attach_monitor(platform, args.port)
    print("Serving the congested im2col simulation of case study 1. "
          "Open the URL and explore; Ctrl-C to stop.")
    run_guarded(platform, 3600.0, wall_timeout=args.duration or None)
    monitor.stop_server()
    print("demo stopped")
    return 0


def _cmd_study(args: argparse.Namespace) -> int:
    from .studies import run_study
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
        from .core.atomicio import atomic_write_text
        atomic_write_text(args.report, result.format_report())
        print(f"report written to {args.report}")
    return 0 if result.matches_paper_figure6() else 1


def _cmd_workloads(args: argparse.Namespace) -> int:
    rows = []
    for name in sorted(WORKLOADS):
        workload = make_workload(name)
        kernel = workload.kernel()
        rows.append({
            "name": name,
            "type": type(workload).__name__,
            "params": dataclasses.asdict(workload),
            "workgroups": kernel.num_workgroups,
            "wavefronts_per_wg": kernel.wavefronts_per_wg,
            "input_bytes": workload.input_bytes(),
            "output_bytes": workload.output_bytes(),
        })
    if args.json:
        print(json.dumps(rows, indent=2))
        return 0
    for row in rows:
        print(f"{row['name']:10s} {row['type']:10s} "
              f"{row['workgroups']:>5d} workgroups x "
              f"{row['wavefronts_per_wg']} wavefronts, "
              f"{row['input_bytes']:>10,d} B in / "
              f"{row['output_bytes']:>10,d} B out")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigurationError as exc:  # e.g. --chiplets 0
        return usage_error(str(exc))
