"""``repro metrics`` — run one benchmark with the metric registry
attached and dump the final Prometheus text exposition."""

import argparse
import sys

from ..cli import add_workload_arguments, build_platform, run_guarded


def register(subparsers) -> None:
    metrics = subparsers.add_parser(
        "metrics",
        help="run a benchmark and dump the Prometheus exposition")
    add_workload_arguments(
        metrics, hang_wait="seconds to keep a hung simulation alive "
                           "(default 0: exit on hang — metrics are "
                           "still dumped)")
    metrics.add_argument("--out", type=str, default="",
                         help="write the exposition here instead of "
                              "stdout")
    metrics.set_defaults(handler=_cmd_metrics)


def _cmd_metrics(args: argparse.Namespace) -> int:
    from . import SimMetrics, expose
    platform, _ = build_platform(args.workload, args.chiplets,
                                  buggy_l2=args.buggy_l2)
    sim_metrics = SimMetrics(platform.simulation)
    sim_metrics.start()
    try:
        ok, state = run_guarded(platform, args.hang_wait)
    finally:
        # A hung run's final counters are exactly what to look at.
        sim_metrics.stop()
    text = expose(sim_metrics.registry)
    if args.out:
        from ..core.atomicio import atomic_write_text
        atomic_write_text(args.out, text)
        print(f"{state}: wrote exposition "
              f"({len(sim_metrics.registry.names)} families) "
              f"to {args.out}")
    else:
        print(text, end="")
        print(f"# run {state}, "
              f"t={platform.simulation.now * 1e6:.2f}us",
              file=sys.stderr)
    return 0 if ok else 1
