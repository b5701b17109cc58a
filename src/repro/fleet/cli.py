"""``repro fleet`` — drain a parameter sweep (workload x chiplet count)
through a worker pool behind the aggregating gateway (``run``), finish
a crashed campaign from its journal (``resume``), or query a running
gateway's ``/api/fleet`` (``status``)."""

import argparse
import json
import sys
import time
from typing import List

from ..cli import SignalGuard

#: Wall seconds between a recorded campaign's historian samples.
HISTORIAN_INTERVAL = 0.5


def _add_fleet_common(parser: argparse.ArgumentParser) -> None:
    """Flags shared by ``fleet run`` and ``fleet resume``: the gateway,
    the pool, the wall bound, checkpoints and artifacts."""
    parser.add_argument("--workers", type=int, default=2,
                        help="worker pool size (default 2)")
    parser.add_argument("--port", type=int, default=0,
                        help="gateway port (default: ephemeral)")
    parser.add_argument("--timeout", type=float, default=600.0,
                        help="wall bound for the whole campaign "
                             "(default 600 s)")
    parser.add_argument("--checkpoint-dir", default="",
                        help="workers write per-job checkpoints here; "
                             "retries resume from them instead of t=0")
    parser.add_argument("--checkpoint-events", type=int, default=0,
                        help="checkpoint cadence in simulation events "
                             "(default 20000 when --checkpoint-dir is "
                             "set and no cadence is given)")
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
    parser.add_argument("--profile", action="store_true",
                        help="run every worker under the continuous "
                             "profiler; per-job attribution summaries "
                             "ride the control channel into "
                             "/api/fleet/profile (and the historian)")
    parser.add_argument("--profile-out", default="",
                        help="write the merged campaign profile as a "
                             "speedscope JSON file here (atomically); "
                             "implies --profile")


def register(subparsers) -> None:
    fleet = subparsers.add_parser(
        "fleet", help="orchestrate many monitored simulations")
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)

    fleet_run = fleet_sub.add_parser(
        "run", help="drain a workload x chiplets sweep through a "
                    "worker pool + gateway")
    fleet_run.add_argument("--workloads", default="fir",
                           help="comma-separated workload names "
                                "(default fir; see workloads --json)")
    fleet_run.add_argument("--chiplets", default="1,2",
                           help="comma-separated chiplet counts, one "
                                "job per workload x count (default 1,2)")
    fleet_run.add_argument("--buggy-l2", action="store_true",
                           help="enable case study 2's write-buffer "
                                "bug in every job")
    fleet_run.add_argument("--journal", default="",
                           help="append every scheduler transition to "
                                "this write-ahead log (enables fleet "
                                "resume); implied by fleet resume itself")
    fleet_run.add_argument("--max-retries", type=int, default=1,
                           help="restart-policy budget per job "
                                "(default 1)")
    fleet_run.add_argument("--crash-first", action="store_true",
                           help="arm a stall fault on the first job's "
                                "first attempt (restart-policy demo)")
    _add_fleet_common(fleet_run)
    fleet_run.set_defaults(handler=_fleet_run)

    fleet_resume = fleet_sub.add_parser(
        "resume", help="rebuild a crashed campaign from its journal "
                       "and finish it exactly-once")
    fleet_resume.add_argument("journal_path", metavar="journal",
                              help="the campaign's --journal file")
    _add_fleet_common(fleet_resume)
    fleet_resume.set_defaults(handler=_fleet_resume)

    fleet_status = fleet_sub.add_parser(
        "status", help="query a running gateway")
    fleet_status.add_argument("--url", required=True,
                              help="gateway base URL")
    fleet_status.add_argument("--json", action="store_true",
                              help="dump the raw /api/fleet document")
    fleet_status.set_defaults(handler=_fleet_status)


def _fleet_status(args: argparse.Namespace) -> int:
    from ..core import RTMClient, RTMConnectionError
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
        events = args.checkpoint_events
        extra += ["--checkpoint-dir", args.checkpoint_dir,
                  "--checkpoint-events", str(events if events > 0
                                             else 20_000)]
    if args.profile or args.profile_out:
        extra.append("--profile")
    return extra


def _wait_drained(manager, shutdown: SignalGuard,
                  timeout: float) -> bool:
    """Small-step wait so a signal is honoured within ~0.2 s."""
    deadline = time.monotonic() + timeout
    while not shutdown.requested and time.monotonic() <= deadline:
        if manager.drained.wait(timeout=0.2):
            return True
    return False


def _drive_campaign(args: argparse.Namespace, queue, journal,
                    num_jobs: int, replay=None) -> int:
    """Start gateway + manager over *queue*, wait for it to drain (or a
    signal / the wall bound), harvest, persist artifacts atomically,
    and settle the exit code.  Shared by ``fleet run`` and ``fleet
    resume`` (which hands in the *replay* it resumes from)."""
    from . import FleetGateway, FleetManager, replay_journal
    from ..core import RTMClient
    from ..core.atomicio import atomic_write_json, atomic_write_text

    manager = FleetManager(queue, num_workers=args.workers,
                           worker_args=_fleet_worker_args(args),
                           journal=journal)
    if replay is not None:
        manager.preload_resume(replay)
    gateway = FleetGateway(manager, port=args.port)
    historian = service = None
    if args.historian:
        from ..historian import Historian, HistorianService
        historian = Historian(args.historian)
        service = HistorianService(
            historian, campaign_id=args.campaign or None,
            manager=manager, interval=HISTORIAN_INTERVAL,
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
    with SignalGuard() as shutdown:  # the wait below notices the flag
        try:
            drained = _wait_drained(manager, shutdown, args.timeout)
            # Harvest through the gateway's public API, like any client
            # would — this is the paper's single pane of glass.
            client = RTMClient(gateway.url)
            status = client.fleet_status()
            metrics_text = client.metrics_text()
            # The gateway dies with this process: render the merged
            # campaign speedscope document while it is still up.
            profile_doc = (client.fleet_profile(format="speedscope")
                           if args.profile_out else None)
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
    if profile_doc is not None:
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
    from ..workloads import WORKLOADS
    from . import CampaignJournal, JobQueue, JobSpec

    workloads = [w.strip() for w in args.workloads.split(",") if w.strip()]
    chiplets = [int(c) for c in args.chiplets.split(",") if c.strip()]
    if not workloads or not chiplets:
        print("error: need at least one workload and one chiplet count",
              file=sys.stderr)
        return 2
    unknown = sorted(set(workloads) - set(WORKLOADS))
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
    return _drive_campaign(args, queue, journal, len(specs))


def _fleet_resume(args: argparse.Namespace) -> int:
    from . import CampaignJournal, replay_journal

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
    return _drive_campaign(args, queue, journal, len(replay.jobs), replay)
