"""The names the benchmark is cited by: workloads, metrics, sizes.

``BENCHMARK.json`` at the repo root carries the same workload and
metric names (checked by ``test_smoke.py``); this module adds what that
file's fixed schema has no room for — which end-to-end metric each
layer metric is predicted to move, and on which workload.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple

#: The repo's packages; every per-layer metric is ``<layer>.<name>``.
LAYERS = ("akita", "gpu", "workloads", "core", "metrics", "trace",
          "profile", "checkpoint", "fleet", "historian", "shard")

#: The four workloads that run one FIR simulation in a child and pair
#: it with a bare FIR twin of the same round.
SIM_WORKLOADS = ("bare", "watched", "instrumented", "scraped")

#: name -> why it is here (one line; BENCHMARK.json carries the same).
WORKLOADS: Dict[str, str] = {
    "bare": "FIR and im2col with no Monitor: akita+gpu+workloads do all "
            "the work, every monitoring plane none; monitoring changes "
            "must not move it",
    "watched": "FIR with Monitor+server and one closed-loop dashboard "
               "client (Fig. 7 active): core server/inspector and GIL "
               "hand-offs do the extra work, no hooks attached",
    "instrumented": "FIR with metrics registry and ring tracer "
                    "recording, no requests: hook fan-out, per-event "
                    "updates and ring appends do the extra work",
    "scraped": "instrumented plus one 10 ms-think reader of /metrics, "
               "/api/metrics and /api/trace/query: the same layers "
               "read beside their writes",
    "fleet": "16 short fir jobs per campaign on 2 warm workers (one CPU) "
             "with journal and historian: per-job framing, fsync, "
             "dispatch and rows are a large share, the simulator a small "
             "one",
    "sharded": "StoreStorm on 4 chiplets, monolithic vs 2 shard "
               "processes on one CPU: coordinator, boundary and barrier "
               "work, engine driven through run_window() not run()",
}


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    what: str


END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "median child spawn -> ready to run (imports, platform "
             "build, enqueue, monitor/server attach); pool boot for "
             "fleet; ShardResult.boot_seconds for sharded"),
    EndToEnd("wall_s", "s", "lower", 0.25,
             "median timed region: platform.run(); submit_all -> "
             "drained; sharded wall minus boot (bare: FIR + im2col)"),
    EndToEnd("events_per_s", "1/s", "higher", 0.25,
             "engine events committed in the timed region / wall_s, "
             "summed over jobs or shards"),
    EndToEnd("overhead_ratio", "x", "lower", 0.25,
             "median over rounds of wall_s / the plain platform.run() "
             "twin of the same round (base: bare FIR twin; fleet: "
             "sum of in-process job runs; sharded: monolithic; "
             "bare: second identical FIR / first, the noise floor)"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.15,
             "median child ru_maxrss at exit (largest process of the "
             "tree for fleet and sharded)"),
)


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    #: ``metric@workload`` it is predicted to move, or ``guard``: no
    #: workload here should move; kept so a refactor cannot silently
    #: regress it.  ``exact`` marks counts that must repeat exactly.
    moves: str
    what: str


PER_LAYER: Tuple[PerLayer, ...] = (
    # -- akita ---------------------------------------------------------
    PerLayer("akita.queue_ns_per_op", "ns", "lower",
             "events_per_s@bare",
             "EventQueue.push + pop at depth 1024"),
    PerLayer("akita.engine_ns_per_event", "ns", "lower",
             "events_per_s@bare",
             "Engine.run() over self-rescheduling no-op events, no "
             "hooks"),
    PerLayer("akita.port_ns_per_msg", "ns", "lower",
             "events_per_s@bare",
             "send -> deliver -> retrieve over a DirectConnection"),
    PerLayer("akita.window_ns_per_event", "ns", "lower",
             "wall_s@sharded",
             "the same events through 128 run_window() calls"),
    PerLayer("akita.hook_ns_per_event", "ns", "lower",
             "overhead_ratio@instrumented",
             "added cost per event of one no-op engine hook (base: "
             "akita.engine_ns_per_event)"),
    PerLayer("akita.engine_s_per_mevent", "s/Mevent", "lower",
             "wall_s@bare",
             "traced run: sampled seconds in repro/akita per million "
             "events, simulation thread"),
    PerLayer("akita.hooks_s_per_mevent", "s/Mevent", "lower",
             "overhead_ratio@instrumented",
             "traced run: sampled seconds in repro/akita/hooks"),
    # -- gpu / workloads -----------------------------------------------
    PerLayer("gpu.fir_us_per_event", "us", "lower", "wall_s@bare",
             "bare FIR host time per simulated event"),
    PerLayer("gpu.im2col_us_per_event", "us", "lower", "wall_s@bare",
             "bare im2col host time per simulated event"),
    PerLayer("gpu.build_ms", "ms", "lower", "setup_s@bare",
             "GPUPlatform(config) in the child"),
    PerLayer("gpu.workload_s_per_mevent", "s/Mevent", "lower",
             "wall_s@bare",
             "traced run: sampled seconds in repro/gpu + "
             "repro/workloads"),
    PerLayer("workloads.enqueue_ms", "ms", "lower", "setup_s@bare",
             "Workload.enqueue(driver) in the child"),
    # -- core ----------------------------------------------------------
    PerLayer("core.attach_ms", "ms", "lower", "setup_s@watched",
             "Monitor(simulation) + attach_driver"),
    PerLayer("core.server_start_ms", "ms", "lower", "setup_s@watched",
             "Monitor.start_server()"),
    PerLayer("core.idle_monitor_ratio", "x", "lower",
             "overhead_ratio@watched",
             "Monitor + server with zero requests / bare twin (the "
             "paper's scenario 2), watched only"),
    PerLayer("core.overview_us", "us", "lower", "core.api_p50_ms@watched",
             "Monitor.overview() on a finished FIR platform"),
    PerLayer("core.progress_us", "us", "lower", "core.api_p50_ms@watched",
             "progress bars -> dicts on a finished FIR platform"),
    PerLayer("core.buffers_us", "us", "lower", "core.api_p50_ms@watched",
             "BufferAnalyzer.snapshot(top=20) -> dicts"),
    PerLayer("core.component_us", "us", "lower", "core.api_p50_ms@watched",
             "Monitor.component_detail(name)"),
    PerLayer("core.http_floor_ms", "ms", "lower", "core.api_p50_ms@watched",
             "p50 of /api/overview over HTTP against a finished "
             "simulation: the HTTP stack without the GIL contest"),
    PerLayer("core.api_p50_ms", "ms", "lower", "overhead_ratio@watched",
             "client-observed median HTTP latency while the simulation "
             "runs, pooled over rounds (watched, scraped)"),
    PerLayer("core.api_p95_ms", "ms", "lower", "guard",
             "pooled p95 of the same requests (GIL-quantised)"),
    PerLayer("core.reads_per_s", "1/s", "higher",
             "overhead_ratio@scraped",
             "requests completed per second by the 10 ms-think reader "
             "(scraped)"),
    PerLayer("core.requests", "count", "higher", "guard",
             "HTTP requests attempted by the load generator"),
    PerLayer("core.request_failures", "count", "lower", "guard",
             "requests that raised or timed out (expect 0)"),
    PerLayer("core.server_s_per_mevent", "s/Mevent", "lower",
             "overhead_ratio@watched",
             "traced run: simulation-thread seconds in the HTTP server "
             "stack"),
    PerLayer("core.monitor_s_per_mevent", "s/Mevent", "lower",
             "overhead_ratio@watched",
             "traced run: simulation-thread seconds in repro/core"),
    # -- metrics -------------------------------------------------------
    PerLayer("metrics.counter_inc_ns", "ns", "lower",
             "overhead_ratio@instrumented",
             "pre-bound labelled Counter child .inc()"),
    PerLayer("metrics.hook_s_per_mevent", "s/Mevent", "lower",
             "overhead_ratio@instrumented",
             "rtm_hook_callback_seconds_total summed over positions, "
             "per million events, from the post-run scrape"),
    PerLayer("metrics.expose_ms", "ms", "lower", "core.reads_per_s@scraped",
             "expose(registry) of a finished instrumented FIR"),
    PerLayer("metrics.snapshot_ms", "ms", "lower",
             "core.reads_per_s@scraped", "registry.snapshot()"),
    PerLayer("metrics.exposition_bytes", "bytes", "lower",
             "core.reads_per_s@scraped", "size of that exposition"),
    PerLayer("metrics.parse_ms", "ms", "lower", "wall_s@fleet",
             "parse_exposition() of it (weak: historian sampling)"),
    PerLayer("metrics.s_per_mevent", "s/Mevent", "lower",
             "overhead_ratio@instrumented",
             "traced run: sampled seconds in repro/metrics"),
    # -- trace ---------------------------------------------------------
    PerLayer("trace.ring_append_ns", "ns", "lower",
             "overhead_ratio@instrumented",
             "RingStore.append(TraceEvent)"),
    PerLayer("trace.query_ms", "ms", "lower", "core.reads_per_s@scraped",
             "RingStore.query(kind=deliver, limit=100) on a full ring"),
    PerLayer("trace.events_recorded", "count", "lower", "exact",
             "tracer.status() after the run; must repeat exactly"),
    PerLayer("trace.events_dropped", "count", "lower", "exact",
             "ring overwrites; must repeat exactly"),
    PerLayer("trace.sqlite_append_us", "us", "lower", "guard",
             "SQLiteStore append + flush into a scratch file"),
    PerLayer("trace.s_per_mevent", "s/Mevent", "lower",
             "overhead_ratio@instrumented",
             "traced run: sampled seconds in repro/trace"),
    # -- profile -------------------------------------------------------
    PerLayer("profile.overhead_ratio", "x", "lower", "guard",
             "traced / untraced wall of the same round: what the "
             "continuous profiler itself costs"),
    PerLayer("profile.samples", "count", "higher", "guard",
             "profiler samples behind the *_s_per_mevent block"),
    PerLayer("profile.summary_ms", "ms", "lower", "guard",
             "ContinuousProfiler.summary() after the run"),
    PerLayer("profile.s_per_mevent", "s/Mevent", "lower", "guard",
             "traced run: sampled seconds in the profilers"),
    # -- checkpoint ----------------------------------------------------
    PerLayer("checkpoint.save_ms", "ms", "lower", "guard",
             "save_checkpoint() of FIR stopped mid-run"),
    PerLayer("checkpoint.bytes", "bytes", "lower", "guard",
             "size of that checkpoint"),
    PerLayer("checkpoint.restore_ms", "ms", "lower", "guard",
             "load_checkpoint() of it"),
    # -- fleet ---------------------------------------------------------
    PerLayer("fleet.jobs_per_s", "1/s", "higher", "wall_s@fleet",
             "jobs completed / drain wall, median over campaigns"),
    PerLayer("fleet.frame_mb_per_s", "MB/s", "higher", "wall_s@fleet",
             "control frames encoded then FrameDecoder.feed()"),
    PerLayer("fleet.journal_append_us", "us", "lower", "wall_s@fleet",
             "CampaignJournal.append(), batched fsync included"),
    PerLayer("fleet.dispatch_ms_per_job", "ms", "lower", "wall_s@fleet",
             "drain wall / jobs - in-process run of one job (one CPU)"),
    PerLayer("fleet.boot_s", "s", "lower", "setup_s@fleet",
             "FleetManager.start() -> wait_ready()"),
    PerLayer("fleet.journal_replay_records_per_s", "1/s", "higher",
             "guard", "replay_journal() of the microbenchmark journal"),
    PerLayer("fleet.torn_frames", "count", "lower", "guard",
             "torn control frames in job post-mortems (expect 0)"),
    PerLayer("fleet.retries", "count", "lower", "guard",
             "job attempts retried (expect 0)"),
    # -- historian -----------------------------------------------------
    PerLayer("historian.record_us", "us", "lower", "wall_s@fleet",
             "Historian.record() amortised over a flushed batch"),
    PerLayer("historian.query_ms", "ms", "lower", "guard",
             "Historian.query(kind=job) over those rows"),
    PerLayer("historian.rows", "count", "higher", "guard",
             "job rows in the store after the campaigns"),
    PerLayer("historian.lost", "count", "lower", "guard",
             "lost + corrupt records (expect 0)"),
    # -- shard ---------------------------------------------------------
    PerLayer("shard.speedup", "x", "higher", "overhead_ratio@sharded",
             "median over pairs of monolithic wall / sharded wall"),
    PerLayer("shard.barrier_wait_s", "s", "lower",
             "overhead_ratio@sharded",
             "sum of rtm_shard_barrier_wait_seconds_total"),
    PerLayer("shard.wall_per_window_ms", "ms", "lower",
             "overhead_ratio@sharded", "sharded wall / windows"),
    PerLayer("shard.boot_s", "s", "lower", "setup_s@sharded",
             "ShardResult.boot_seconds"),
    PerLayer("shard.windows", "count", "lower", "exact",
             "sync windows; must repeat exactly"),
    PerLayer("shard.boundary_msgs", "count", "lower", "exact",
             "boundary messages ferried; must repeat exactly"),
)

#: Seconds one run measures (``run_seconds`` in BENCHMARK.json).
RUN_SECONDS = 14

#: Seconds ``child.calibration_loop`` takes on the reference host (this
#: container on a good minute).  Child-side durations are scaled by
#: reference / measured, from the yardstick samples taken just before
#: and after each timed region.
CALIBRATION_REFERENCE_S = 0.04

#: Problem sizes.  A timed run is ~0.5 s so that a dozen seconds hold
#: several interleaved rounds; the ``*_summary.txt`` benchmarks keep the
#: paper-sized runs.
SIZES = {
    "fir": {"num_samples": 4096},
    "im2col_batch": 3,
    "chiplets": 2,
    "think_s": {"dashboard": 0.020, "scraper": 0.010},
    "fleet": {"workers": 2, "jobs": 16, "num_samples": 1024,
              "boots": 3},
    "storm": {"num_workgroups": 16, "wavefronts_per_wg": 4,
              "stores_per_wavefront": 32, "page_locality": 4},
    "traced_pairs": 2,
    "idle_pairs": 3,
    "micro_scale": 0.5,
}

#: ``--smoke``: one round of everything in seconds, never comparable.
SMOKE_SIZES = {
    "fir": {"num_samples": 1024},
    "im2col_batch": 1,
    "chiplets": 2,
    "think_s": {"dashboard": 0.005, "scraper": 0.002},
    "fleet": {"workers": 2, "jobs": 4, "num_samples": 512, "boots": 1},
    "storm": {"num_workgroups": 4, "wavefronts_per_wg": 2,
              "stores_per_wavefront": 8, "page_locality": 4},
    "traced_pairs": 1,
    "idle_pairs": 1,
    "micro_scale": 0.05,
}

#: The sharded workload's platform (benchmarks/test_shard_speedup.py).
SHARD_CONFIG = {"num_chiplets": 4, "sas_per_gpu": 4, "cus_per_sa": 4,
                "driver_conn_latency_cycles": 20,
                "net_msgs_per_cycle": 8}
