"""The six workloads.  Each runner spends the run's seconds on
interleaved rounds of child processes and returns one result block:
``end_to_end`` (a median per metric, raw per-round samples beside it),
``ops``/``failed``, ``rounds``, ``layers`` and ``checks``.

Kernels are deterministic, so the seed reaches only the load
generator's choices and the fleet's job order.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

from . import spec as names
from .load import drive
from .proc import Child, ChildError, Spans

#: What a simulation must compute identically however it is observed.
EXACT_KEYS = ("event_count", "sim_time", "instructions", "wgs",
              "mem_reqs")

#: Planes each FIR variant switches on, and the load it receives.
VARIANTS = {
    "bare": {"monitor": False, "instrument": False, "load": None},
    "idle": {"monitor": True, "instrument": False, "load": None},
    "watched": {"monitor": True, "instrument": False,
                "load": "dashboard"},
    "instrumented": {"monitor": True, "instrument": True, "load": None},
    "scraped": {"monitor": True, "instrument": True, "load": "scraper"},
}


#: Continuous-profiler layer -> the per-layer metric it feeds.
PROFILE_LAYERS = {
    "engine": "akita.engine_s_per_mevent",
    "hooks": "akita.hooks_s_per_mevent",
    "workload": "gpu.workload_s_per_mevent",
    "metrics": "metrics.s_per_mevent",
    "trace": "trace.s_per_mevent",
    "server": "core.server_s_per_mevent",
    "monitor": "core.monitor_s_per_mevent",
    "profiler": "profile.s_per_mevent",
}


@dataclass
class Context:
    """What one invocation hands every workload."""

    seed: int
    seconds: float
    trace: bool
    sizes: Dict[str, Any]
    workdir: str
    #: kernel name -> EXACT_KEYS values recorded with the baseline
    #: (empty when the sizes are not the baseline's).
    expected: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    spans: Spans = field(default_factory=Spans)
    #: When the workload now running began; the CLI resets it for each.
    start: float = field(default_factory=time.monotonic)

    def rng(self, workload: str) -> random.Random:
        return random.Random(f"{self.seed}:{workload}")

    def rounds(self, phase: str = "rounds",
               at_most: Optional[int] = None) -> Iterator[int]:
        """Round indices: always one, then for as long as another round
        — taken to last as long as the longest so far — ends before
        *phase* must (see ``TRACE_SHARES``; untraced, when the run's
        seconds are over).  A run so takes its seconds whatever the
        host's speed, and a slow spell costs rounds, not time."""
        share = TRACE_SHARES[phase] if self.trace else 1.0
        deadline = self.start + self.seconds * share
        longest = 0.0
        index = 0
        while True:
            began = time.monotonic()
            yield index
            index += 1
            now = time.monotonic()
            longest = max(longest, now - began)
            if index == at_most or now + longest > deadline:
                return


#: ``--trace 1`` splits the same seconds, counted from ``Context.start``:
#: the untraced rounds end by the first share, the idle pairs (watched
#: only) by the second, the traced pairs by the third, and the
#: microbenchmarks take the rest.  Fleet and sharded have no pairs and
#: keep their rounds going up to ``only``.
TRACE_SHARES = {"rounds": 0.4, "idle": 0.55, "traced": 0.8, "only": 0.8}


class Result:
    """Accumulates one workload's block."""

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = {}
        self.layer_samples: Dict[str, List[float]] = {}
        self.layer_notes: Dict[str, Dict[str, Any]] = {}
        self.rounds: List[Dict[str, Any]] = []
        self.checks: List[Dict[str, Any]] = []
        self.ops = 0
        self.failed = 0

    def sample(self, **values: float) -> None:
        for metric, value in values.items():
            self.samples.setdefault(metric, []).append(value)

    def layer(self, metric: str, value: float, **notes: Any) -> None:
        self.layer_samples.setdefault(metric, []).append(value)
        if notes:
            self.layer_notes[metric] = notes

    def check(self, name: str, ok: bool, detail: Any = None) -> bool:
        self.checks.append({"name": name, "ok": bool(ok),
                            "detail": detail})
        return bool(ok)

    def operations(self, count: int, failed: int) -> None:
        self.ops += count
        self.failed += failed

    def run_failed(self, run_id: str, exc: Exception) -> None:
        """A child died, hung or spoke out of turn."""
        self.operations(1, 1)
        self.check(f"{run_id}: child ran", False, str(exc))

    def block(self) -> Dict[str, Any]:
        units = {m.name: m.unit for m in names.END_TO_END}
        layer_units = {m.name: m.unit for m in names.PER_LAYER}
        return {
            "end_to_end": {
                metric: {"value": statistics.median(values),
                         "unit": units[metric], "n": len(values),
                         "samples": values}
                for metric, values in self.samples.items()},
            "ops": self.ops, "failed": self.failed,
            "rounds": self.rounds,
            "layers": {
                metric: {"value": statistics.median(values),
                         "unit": layer_units[metric], "n": len(values),
                         **self.layer_notes.get(metric, {})}
                for metric, values in self.layer_samples.items()},
            "checks": self.checks,
        }


# ----------------------------------------------------------------------
# One simulation child
# ----------------------------------------------------------------------
def fir_kernel(ctx: Context) -> Dict[str, Any]:
    return {"name": "fir", "params": ctx.sizes["fir"]}


def sim_run(ctx: Context, result: Result, run_id: str, variant: str,
            kernel: Dict[str, Any], rng: random.Random,
            config: Optional[Dict[str, Any]] = None,
            profile: bool = False) -> Dict[str, Any]:
    """Run *kernel* once under *variant* in a fresh child; returns the
    run record (``ok`` False when the run failed)."""
    flags = VARIANTS[variant]
    child_spec = {"mode": "sim", "kernel": kernel,
                  "config": config or
                  {"num_chiplets": ctx.sizes["chiplets"]},
                  "monitor": flags["monitor"],
                  "instrument": flags["instrument"], "profile": profile}
    record: Dict[str, Any] = {"run_id": run_id, "variant": variant,
                              "kernel": kernel["name"],
                              "profiled": profile, "ok": False}
    load = None
    try:
        with Child(child_spec, run_id, ctx.spans if ctx.trace else None) \
                as child:
            if flags["load"]:
                done, load = drive(child, flags["load"], rng,
                                   ctx.sizes["think_s"][flags["load"]])
            else:
                child.send({"cmd": "run"})
                done = child.event("done")
            after = child.event("calibration")["calibration_s"]
        if ctx.trace and load:
            for endpoint, start, end in load["requests"]:
                ctx.spans.add(f"http.{endpoint}", "core", start, end,
                              child.span_ids["run"][0], run_id)
    except ChildError as exc:
        record["error"] = str(exc)
        result.run_failed(run_id, exc)
        return record
    record.update({k: v for k, v in done.items() if k != "event"})
    before = child.ready["calibration_s"]
    at_setup = reference_scale(before)
    record.update(
        calibration_s=[before, after], wall_raw_s=done["wall_s"],
        wall_s=done["wall_s"] * reference_scale(before, after),
        setup_raw_s=child.setup_s, setup_s=child.setup_s * at_setup,
        hooks=child.ready["hooks"],
        peak_rss_mb=child.exit["peak_rss_mb"],
        build_ms=child.phase_ms("gpu.build") * at_setup,
        enqueue_ms=child.phase_ms("workloads.enqueue") * at_setup,
        attach_ms=child.phase_ms("core.attach") * at_setup,
        server_start_ms=child.phase_ms("core.start_server") * at_setup)
    record["ok"] = result.check(f"{run_id}: completed",
                                done["completed"])
    result.operations(1, 0 if record["ok"] else 1)
    if not flags["monitor"]:
        record["ok"] &= result.check(
            f"{run_id}: bare run carries no hooks",
            child.ready["hooks"] == 0, child.ready["hooks"])
    if load is not None:
        record["latency_ms"] = [(end - start) * 1e3
                                for _, start, end in load["requests"]]
        record["request_failures"] = load["failures"]
        record["load_seconds"] = load["seconds"]
        result.operations(len(load["requests"]), load["failures"])
    expected = ctx.expected.get(kernel["name"])
    if expected:
        got = {k: record[k] for k in EXACT_KEYS}
        record["ok"] &= result.check(
            f"{run_id}: {kernel['name']} matches the baseline",
            got == expected, {"got": got, "baseline": expected})
    return record


def same_simulation(result: Result, run: Dict[str, Any],
                    twin: Dict[str, Any],
                    keys=EXACT_KEYS) -> bool:
    """Non-interference: *run* computed exactly what *twin* did."""
    got = {k: run.get(k) for k in keys}
    want = {k: twin.get(k) for k in keys}
    return result.check(
        f"{run['run_id']}: same simulation as {twin['run_id']}",
        run["ok"] and twin["ok"] and got == want,
        None if got == want else {"got": got, "twin": want})


def reference_scale(*calibration_s: float) -> float:
    """Factor turning seconds measured beside these yardstick samples
    into seconds on the reference host (see ``child.calibration_loop``)."""
    return names.CALIBRATION_REFERENCE_S * len(calibration_s) \
        / sum(calibration_s)


def _rotated(members: List[Any], index: int) -> List[Any]:
    shift = index % len(members)
    return members[shift:] + members[:shift]


def sim_round(ctx: Context, result: Result, rng: random.Random,
              round_id: str, index: int,
              members: List[Any]) -> Dict[str, Dict[str, Any]]:
    """Run *members* — ``(label, variant, kernel, profile)`` — one
    after the other, starting position rotated by *index*, and file the
    raw records; returns them by label."""
    order = _rotated(members, index)
    runs = {label: sim_run(ctx, result, f"{round_id}/{label}", variant,
                           kernel, rng, profile=profile)
            for label, variant, kernel, profile in order}
    result.rounds.append({"round": round_id.split("/")[-1],
                          "order": [m[0] for m in order], "runs": runs})
    return runs


def _us_per_event(run: Dict[str, Any]) -> float:
    return run["wall_s"] / run["event_count"] * 1e6


# ----------------------------------------------------------------------
# bare / watched / instrumented / scraped
# ----------------------------------------------------------------------
def run_sim_workload(ctx: Context, workload: str) -> Dict[str, Any]:
    rng = ctx.rng(workload)
    result = Result()
    fir = fir_kernel(ctx)
    im2col = {"name": "im2col",
              "params": {"batch": ctx.sizes["im2col_batch"]}}
    if workload == "bare":
        # "twin" is a second identical FIR: its ratio to the first is
        # the harness's own resolution.
        members = [("fir", "bare", fir, False),
                   ("twin", "bare", fir, False),
                   ("im2col", "bare", im2col, False)]
        subject = "fir"
    else:
        members = [("twin", "bare", fir, False),
                   (workload, workload, fir, False)]
        subject = workload
    latencies: List[float] = []
    load_seconds = 0.0
    request_failures = 0
    for index in ctx.rounds():
        runs = sim_round(ctx, result, rng, f"{workload}/r{index}",
                         index, members)
        if not all(run["ok"] for run in runs.values()):
            continue
        run, twin = runs[subject], runs["twin"]
        same_simulation(result, run, twin)
        timed = [run] + ([runs["im2col"]] if workload == "bare" else [])
        wall = sum(r["wall_s"] for r in timed)
        result.sample(
            setup_s=run["setup_s"], wall_s=wall,
            events_per_s=sum(r["event_count"] for r in timed) / wall,
            overhead_ratio=(twin["wall_s"] / run["wall_s"]
                            if workload == "bare"
                            else run["wall_s"] / twin["wall_s"]),
            peak_rss_mb=max(r["peak_rss_mb"] for r in timed))
        # -- per layer, from the same untraced runs --------------------
        result.layer("gpu.fir_us_per_event", _us_per_event(twin))
        if workload == "bare":
            result.layer("gpu.im2col_us_per_event",
                         _us_per_event(runs["im2col"]))
        for r in runs.values():
            result.layer("gpu.build_ms", r["build_ms"])
            result.layer("workloads.enqueue_ms", r["enqueue_ms"])
        if VARIANTS[workload]["monitor"]:
            result.layer("core.attach_ms", run["attach_ms"])
            result.layer("core.server_start_ms", run["server_start_ms"])
        if "scrape" in run:
            scrape = run["scrape"]
            result.layer("metrics.hook_s_per_mevent",
                         scrape["hook_seconds"] / run["event_count"]
                         * 1e6)
            result.layer("trace.events_recorded",
                         scrape["trace_recorded"])
            result.layer("trace.events_dropped",
                         scrape["trace_dropped"])
            result.check(f"{run['run_id']}: registry counted every "
                         "event", scrape["events_total"]
                         == run["event_count"], scrape["events_total"])
        if "latency_ms" in run:
            latencies.extend(run["latency_ms"])
            load_seconds += run["load_seconds"]
            request_failures += run["request_failures"]
    if latencies:
        _latency_layers(result, latencies, request_failures,
                        load_seconds, reader=workload == "scraped")
    for metric in ("trace.events_recorded", "trace.events_dropped"):
        _repeats_exactly(result, metric)
    if ctx.trace:
        if workload == "watched":
            _idle_pairs(ctx, result, rng)
        _traced_pairs(ctx, result, workload, rng)
    return result.block()


def _latency_layers(result: Result, latencies: List[float],
                    failures: int, load_seconds: float,
                    reader: bool) -> None:
    ordered = sorted(latencies)
    count = len(ordered)
    result.layer("core.api_p50_ms", statistics.median(ordered),
                 requests=count)
    result.layer("core.api_p95_ms",
                 ordered[min(count - 1, int(count * 0.95))],
                 requests=count)
    result.layer("core.requests", count)
    result.layer("core.request_failures", failures)
    if reader:
        result.layer("core.reads_per_s", count / load_seconds,
                     requests=count)
    result.check("load generator sent requests and none failed",
                 count > 0 and failures == 0,
                 {"requests": count, "failures": failures})


def _repeats_exactly(result: Result, metric: str) -> None:
    values = result.layer_samples.get(metric)
    if values:
        result.check(f"{metric} repeats exactly", len(set(values)) == 1,
                     sorted(set(values)))


def _idle_pairs(ctx: Context, result: Result,
                rng: random.Random) -> None:
    """The paper's scenario 2: Monitor and server up, nobody asking."""
    fir = fir_kernel(ctx)
    for index in ctx.rounds("idle", ctx.sizes["idle_pairs"]):
        runs = sim_round(ctx, result, rng, f"watched/idle{index}", index,
                         [("twin", "bare", fir, False),
                          ("idle", "idle", fir, False)])
        if same_simulation(result, runs["idle"], runs["twin"]):
            result.layer("core.idle_monitor_ratio",
                         runs["idle"]["wall_s"]
                         / runs["twin"]["wall_s"], base="bare FIR twin")


def _traced_pairs(ctx: Context, result: Result, workload: str,
                  rng: random.Random) -> None:
    """The same run with the continuous profiler on, beside an
    untraced one: per-layer seconds, and what tracing costs."""
    fir = fir_kernel(ctx)
    layer_seconds: Dict[str, float] = {}
    events = samples = 0
    for index in ctx.rounds("traced", ctx.sizes["traced_pairs"]):
        runs = sim_round(ctx, result, rng, f"{workload}/traced{index}",
                         index, [("untraced", workload, fir, False),
                                 ("traced", workload, fir, True)])
        if not same_simulation(result, runs["traced"],
                               runs["untraced"]):
            continue
        traced = runs["traced"]
        result.layer("profile.overhead_ratio",
                     traced["wall_s"] / runs["untraced"]["wall_s"],
                     base="untraced run of the same pair")
        result.layer("profile.summary_ms",
                     traced["profile"]["summary_ms"])
        events += traced["event_count"]
        samples += traced["profile"]["samples"]
        for layer, seconds in traced["profile"]["layers"].items():
            layer_seconds[layer] = layer_seconds.get(layer, 0.0) \
                + seconds
    if not events:
        return
    result.layer("profile.samples", samples)
    for layer, metric in PROFILE_LAYERS.items():
        result.layer(metric, layer_seconds.get(layer, 0.0) / events
                     * 1e6, samples=samples)


# ----------------------------------------------------------------------
# fleet
# ----------------------------------------------------------------------
def run_fleet(ctx: Context) -> Dict[str, Any]:
    rng = ctx.rng("fleet")
    result = Result()
    sizes = ctx.sizes["fleet"]
    child_spec = {"mode": "fleet", "workers": sizes["workers"],
                  "boots": sizes["boots"], "workdir": ctx.workdir,
                  "params": {"num_samples": sizes["num_samples"]},
                  "trace": ctx.trace}
    job_spans: List[Any] = []
    try:
        with Child(child_spec, "fleet",
                   ctx.spans if ctx.trace else None) as child:
            result.operations(1, 0 if result.check(
                "fleet: pool booted", child.ready["booted"]) else 1)
            for boot in child.ready["boots"]:
                boot_s = boot["boot_s"] \
                    * reference_scale(*boot["calibration_s"])
                result.sample(setup_s=boot_s)
                result.layer("fleet.boot_s", boot_s)
            for index in ctx.rounds("only"):
                jobs = [{"job_id": f"c{index}-j{k}",
                         "chiplets": 1 + k % 2}
                        for k in range(sizes["jobs"])]
                rng.shuffle(jobs)
                child.send({"cmd": "campaign", "jobs": jobs})
                campaign = child.event("campaign")
                transitions = campaign.pop("transitions")
                result.rounds.append({"round": index, **campaign})
                _fleet_round(result, campaign, sizes)
                job_spans.extend(_job_spans(index, transitions))
        store = child.exit["extra"][0]
        if ctx.trace:
            for campaign, run_id, start, end in job_spans:
                ctx.spans.add("fleet.job", "fleet", start, end,
                              child.span_ids["fleet.campaign"][campaign],
                              run_id)
        result.sample(peak_rss_mb=child.exit["peak_rss_mb"])
    except ChildError as exc:
        result.run_failed("fleet", exc)
        return result.block()
    result.layer("historian.rows", store["rows"])
    result.layer("historian.lost", store["lost"])
    total = sizes["jobs"] * len(result.rounds)
    result.check("historian holds one row per job, none lost",
                 store["rows"] == total and store["lost"] == 0, store)
    return result.block()


def _fleet_round(result: Result, campaign: Dict[str, Any],
                 sizes: Dict[str, Any]) -> None:
    jobs = sizes["jobs"]
    scale = reference_scale(*campaign["calibration_s"])
    wall = campaign["wall_s"] * scale
    result.operations(jobs, jobs - campaign["completed"])
    result.check("fleet: every job completed",
                 campaign["completed"] == jobs, campaign["completed"])
    ideal = campaign["ideal_s"] \
        * reference_scale(*campaign["reference_calibration_s"])
    result.sample(wall_s=wall,
                  events_per_s=campaign["event_count"] / wall,
                  overhead_ratio=wall / ideal)
    result.layer("fleet.jobs_per_s", jobs / wall)
    result.layer("fleet.dispatch_ms_per_job",
                 (campaign["wall_s"] / jobs - campaign["ref_s"])
                 * scale * 1e3,
                 base="in-process platform.run() of one job")
    result.layer("fleet.retries", campaign["retries"])
    result.layer("fleet.torn_frames", campaign["torn_frames"])


def _job_spans(index: int, transitions: List[List[Any]]):
    """``(campaign, run_id, submit, done)`` per job, from the queue
    transitions the traced child observed (none when untraced)."""
    submitted: Dict[str, float] = {}
    for event, job_id, at in transitions:
        if event == "submit":
            submitted[job_id] = at
        elif event in ("complete", "fail") and job_id in submitted:
            yield index, f"fleet/{job_id}", submitted[job_id], at


# ----------------------------------------------------------------------
# sharded
# ----------------------------------------------------------------------
def run_sharded(ctx: Context) -> Dict[str, Any]:
    rng = ctx.rng("sharded")
    result = Result()
    kernel = {"name": "storestorm", "params": ctx.sizes["storm"]}
    for index in ctx.rounds("only"):
        runs = {}
        order = _rotated(["mono", "sharded"], index)
        for label in order:
            run_id = f"sharded/r{index}/{label}"
            if label == "mono":
                runs[label] = sim_run(ctx, result, run_id, "bare",
                                      kernel, rng,
                                      config=names.SHARD_CONFIG)
            else:
                runs[label] = _sharded_run(ctx, result, run_id, kernel)
        result.rounds.append({"round": index, "order": order,
                              "runs": runs})
        mono, sharded = runs["mono"], runs["sharded"]
        # Event counts differ by design (proxy deliveries); what the
        # CUs committed and when the run ended may not.
        if not same_simulation(result, sharded, mono,
                               ("sim_time", "instructions", "wgs",
                                "mem_reqs")):
            continue
        wall = sharded["wall_s"]
        result.sample(setup_s=sharded["boot_s"], wall_s=wall,
                      events_per_s=sharded["event_count"] / wall,
                      overhead_ratio=wall / mono["wall_s"],
                      peak_rss_mb=sharded["peak_rss_mb"])
        result.layer("shard.speedup", mono["wall_s"] / wall,
                     base="monolithic run of the same pair")
        result.layer("shard.barrier_wait_s", sharded["barrier_wait_s"])
        result.layer("shard.wall_per_window_ms",
                     wall / sharded["windows"] * 1e3)
        result.layer("shard.boot_s", sharded["boot_s"])
        result.layer("shard.windows", sharded["windows"])
        result.layer("shard.boundary_msgs", sharded["boundary_msgs"])
    for metric in ("shard.windows", "shard.boundary_msgs"):
        _repeats_exactly(result, metric)
    return result.block()


def _sharded_run(ctx: Context, result: Result, run_id: str,
                 kernel: Dict[str, Any]) -> Dict[str, Any]:
    child_spec = {"mode": "sharded", "kernel": kernel,
                  "config": names.SHARD_CONFIG, "shards": 2}
    record: Dict[str, Any] = {"run_id": run_id, "ok": False}
    try:
        with Child(child_spec, run_id,
                   ctx.spans if ctx.trace else None) as child:
            child.send({"cmd": "run"})
            done = child.event("done")
    except ChildError as exc:
        record["error"] = str(exc)
        result.run_failed(run_id, exc)
        return record
    record.update({k: v for k, v in done.items() if k != "event"})
    before, after = done["calibration_s"]
    scale = reference_scale(before, after)
    record.update(wall_raw_s=done["wall_s"],
                  wall_s=done["wall_s"] * scale,
                  boot_raw_s=done["boot_s"],
                  boot_s=done["boot_s"] * reference_scale(before),
                  barrier_wait_s=done["barrier_wait_s"] * scale,
                  peak_rss_mb=child.exit["peak_rss_mb"])
    record["ok"] = result.check(f"{run_id}: completed",
                                done["completed"])
    result.operations(1, 0 if record["ok"] else 1)
    return record


RUNNERS: Dict[str, Callable[[Context], Dict[str, Any]]] = {
    **{name: (lambda ctx, name=name: run_sim_workload(ctx, name))
       for name in names.SIM_WORKLOADS},
    "fleet": run_fleet,
    "sharded": run_sharded,
}
