"""``repro historian`` — query a campaign historian database
(``list|show|compare|prune``); campaigns record themselves into one
with ``fleet run --historian <db>``."""

import argparse
import json
import sys

#: Family rows ``historian compare`` prints, largest move first.
COMPARE_TOP = 15


def register(subparsers) -> None:
    historian = subparsers.add_parser(
        "historian",
        help="query a campaign historian database")
    historian.set_defaults(handler=_cmd_historian)
    hist_sub = historian.add_subparsers(dest="historian_command",
                                        required=True)

    hist_list = hist_sub.add_parser(
        "list", help="campaigns in the database")
    hist_list.add_argument("db", help="historian SQLite file")
    hist_list.add_argument("--json", action="store_true")
    hist_list.set_defaults(query=_historian_list)

    hist_show = hist_sub.add_parser(
        "show", help="one campaign's jobs, post-mortems and alerts")
    hist_show.add_argument("db", help="historian SQLite file")
    hist_show.add_argument("campaign", help="campaign id")
    hist_show.add_argument("--json", action="store_true")
    hist_show.set_defaults(query=_historian_show)

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
    hist_compare.set_defaults(query=_historian_compare)

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
    hist_prune.set_defaults(query=_historian_prune)


def _cmd_historian(args: argparse.Namespace) -> int:
    from . import Historian
    historian = Historian(args.db)
    try:
        return args.query(args, historian)
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
        from ..core.atomicio import atomic_write_json
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
    for name, entry in moved[:COMPARE_TOP]:
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
        from ..profile.cli import print_profile_diff
        print_profile_diff(profile, top=COMPARE_TOP, indent="  ")
    if args.out:
        print(f"wrote comparison JSON to {args.out}")
    return 0


def _historian_prune(args: argparse.Namespace, historian) -> int:
    from . import RECORD_KINDS, RetentionPolicy
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
