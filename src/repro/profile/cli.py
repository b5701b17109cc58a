"""``repro profile`` — run one monitored benchmark under the continuous
profiler and record its overhead-attribution summary (``record``), then
print (``report``), convert (``export``) or A/B diff (``diff``)
recorded summaries."""

import argparse
import json
import sys

from ..cli import (add_workload_arguments, attach_monitor, build_platform,
                   run_guarded)


def register(subparsers) -> None:
    profile = subparsers.add_parser(
        "profile",
        help="continuous profiling: record, report, export, diff")
    sub = profile.add_subparsers(dest="profile_command", required=True)

    record = sub.add_parser(
        "record", help="run one monitored benchmark under the "
                       "continuous profiler and write its summary")
    add_workload_arguments(record)
    record.add_argument("--interval", type=float, default=0.02,
                        help="sampling interval in seconds "
                             "(default 0.02)")
    record.add_argument("--window", type=float, default=1.0,
                        help="rolling window length in seconds "
                             "(default 1.0)")
    record.add_argument("--server", action="store_true",
                        help="also start the dashboard server so "
                             "its threads appear in the profile")
    record.add_argument("--out", required=True,
                        help="write the summary JSON here "
                             "(atomically)")
    record.set_defaults(handler=_profile_record)

    report = sub.add_parser(
        "report", help="print the layer/function attribution of a "
                       "recorded summary")
    report.add_argument("summary", help="summary JSON from "
                                        "profile record")
    report.add_argument("--top", type=int, default=15,
                        help="function rows printed (default 15)")
    report.add_argument("--json", action="store_true",
                        help="dump the raw summary document")
    report.set_defaults(handler=_profile_report)

    export = sub.add_parser(
        "export", help="convert a recorded summary to a viewer format")
    export.add_argument("summary", help="summary JSON from "
                                        "profile record")
    export.add_argument("--format",
                        choices=("speedscope", "collapsed"),
                        default="speedscope",
                        help="output format (default speedscope)")
    export.add_argument("--out", required=True,
                        help="write the export here (atomically)")
    export.set_defaults(handler=_profile_export)

    diff = sub.add_parser(
        "diff", help="per-layer / per-function delta between two "
                     "recorded summaries")
    diff.add_argument("a", help="baseline summary JSON")
    diff.add_argument("b", help="candidate summary JSON")
    diff.add_argument("--top", type=int, default=15,
                      help="function rows printed (default 15)")
    diff.add_argument("--json", action="store_true",
                      help="dump the raw diff document")
    diff.set_defaults(handler=_profile_diff)


def _load_summary(path: str) -> dict:
    try:
        with open(path) as handle:
            return json.load(handle)
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
    from ..core.atomicio import atomic_write_json
    platform, _ = build_platform(args.workload, args.chiplets,
                                  buggy_l2=args.buggy_l2)
    monitor = attach_monitor(platform, 0 if args.server else None)
    monitor.ensure_sim_metrics().start()
    profiler = monitor.start_continuous_profiling(
        interval=args.interval, window_seconds=args.window)
    try:
        ok, state = run_guarded(platform)
    finally:
        # A hung run's profile is exactly what to look at: stop the
        # sampling thread first so the summary is a settled snapshot.
        profiler.stop()
        summary = profiler.summary()
        monitor.stop_server()
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
    else:
        _print_summary(summary, top=args.top)
    return 0


def _profile_export(args: argparse.Namespace) -> int:
    from . import collapsed_stacks, speedscope_document, summary_stack_map
    from ..core.atomicio import atomic_write_json, atomic_write_text
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
    from . import diff_summaries
    diff = diff_summaries(_load_summary(args.a), _load_summary(args.b),
                          top=args.top)
    if args.json:
        print(json.dumps(diff, indent=2, default=str))
        return 0
    print(f"profile diff: {args.a} vs {args.b}")
    print_profile_diff(diff, top=args.top, indent="")
    return 0


def print_profile_diff(diff: dict, top: int, indent: str) -> None:
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
