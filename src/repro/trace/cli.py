"""``repro trace`` — run one benchmark with the tracer attached and
export the recorded message/task lifecycle (JSONL or Perfetto)."""

import argparse
import re

from ..cli import (add_workload_arguments, build_platform, run_guarded,
                   usage_error)


def register(subparsers) -> None:
    trace = subparsers.add_parser(
        "trace", help="record a message/task trace of one benchmark")
    add_workload_arguments(
        trace, hang_wait="seconds to keep a hung simulation alive "
                         "(default 0: exit on hang — the trace is "
                         "still exported)")
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
    trace.set_defaults(handler=_cmd_trace)


def _cmd_trace(args: argparse.Namespace) -> int:
    from . import RingStore, SQLiteStore, Tracer, export_events
    if args.backend == "sqlite" and not args.db:
        return usage_error("--backend sqlite needs --db")
    if args.capacity < 1:
        return usage_error("--capacity must be positive")
    try:
        re.compile(args.include)
    except re.error as exc:
        return usage_error(f"--include {args.include!r}: {exc}")
    platform, _ = build_platform(args.workload, args.chiplets,
                                  buggy_l2=args.buggy_l2)
    store = (SQLiteStore(args.db) if args.backend == "sqlite"
             else RingStore(args.capacity))
    tracer = Tracer(platform.simulation, store,
                    include=args.include or None)
    tracer.start()
    try:
        ok, state = run_guarded(platform, args.hang_wait)
    finally:
        # A hung run still has a story to tell: stop (flushes), export.
        tracer.stop()
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
