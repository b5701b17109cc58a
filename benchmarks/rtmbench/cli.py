"""Command line of the benchmark.

``python -m benchmarks.rtmbench --seed N [--workload W]... [--seconds S]
[--trace [0|1]] [--out DIR] [--table [FILE]] [--smoke]`` runs the
chosen workloads (default: all six) and prints every metric by name
with its unit, then one JSON result line.  ``compare A B`` judges two
result files (or two directories of them) against the bounds in
``BENCHMARK.json``.  Exit status is non-zero when a check or an
operation failed, or ``compare`` found a row ``worse``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
BASELINE = HERE / "baseline.json"


def _host() -> Dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=REPO,
            capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "commit": commit or "unknown",
            "load1": os.getloadavg()[0]}


def _expected(sizes: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Exact simulation results recorded with the baseline, when the
    baseline ran these sizes."""
    if not BASELINE.exists():
        return {}
    baseline = json.loads(BASELINE.read_text())
    return baseline["exact"] if baseline["sizes"] == sizes else {}


def _exact(blocks: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """kernel -> what its first bare run computed."""
    from .workloads import EXACT_KEYS
    exact: Dict[str, Dict[str, Any]] = {}
    for block in blocks.values():
        for round_ in block["rounds"]:
            for run in round_.get("runs", {}).values():
                if run.get("variant") == "bare" and run["ok"]:
                    exact.setdefault(run["kernel"],
                                     {k: run[k] for k in EXACT_KEYS})
    return exact


def run(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(REPO / "src"))
    from . import report, spec
    from .workloads import RUNNERS, Context

    sizes = spec.SMOKE_SIZES if args.smoke else spec.SIZES
    workloads: List[str] = args.workload or list(spec.WORKLOADS)
    os.makedirs(".rtmbench_work", exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=".rtmbench_work")
    try:
        ctx = Context(seed=args.seed, trace=bool(args.trace),
                      seconds=0.0 if args.smoke else args.seconds,
                      sizes=sizes, workdir=os.path.abspath(workdir),
                      expected=_expected(sizes))
        host = _host()
        blocks = {}
        for name in workloads:
            ctx.start = time.monotonic()
            blocks[name] = RUNNERS[name](ctx)
        layers: Dict[str, Any] = {}
        if ctx.trace:
            from . import micro
            units = {m.name: m.unit for m in spec.PER_LAYER}
            layers = {name: {"value": value, "unit": units[name]}
                      for name, value in micro.run_all(
                          sizes["micro_scale"],
                          sizes["fir"]["num_samples"],
                          ctx.workdir).items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    document = {
        "schema": "rtmbench/1",
        # Smoke sizes exist to exercise the code, not to be compared.
        "comparable": not args.smoke,
        "host": host, "seed": args.seed, "seconds": ctx.seconds,
        "trace": int(ctx.trace), "sizes": sizes,
        "workloads": blocks, "layers": layers,
        "exact": _exact(blocks),
        "checks": [{"name": f"{name}: at least one round completed",
                    "ok": bool(block["end_to_end"]), "detail": None}
                   for name, block in blocks.items()],
    }
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "result.json").write_text(json.dumps(document, indent=1))
        if ctx.trace:
            (out / "spans.json").write_text(
                json.dumps(ctx.spans.with_self_time()))
    print(report.listing(document))
    if args.table:
        print(report.table(document))
    line = report.result_line(document)
    print(json.dumps(line))
    return 0 if line["correct"] and line["failed"] == 0 else 1


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="rtmbench compare")
        parser.add_argument("a", help="result.json, or a directory of "
                            "result files (one median each)")
        parser.add_argument("b")
        args = parser.parse_args(argv[1:])
        from . import report
        text, worse = report.compare(args.a, args.b)
        print(text)
        return 1 if worse else 0
    from . import spec
    parser = argparse.ArgumentParser(prog="rtmbench",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", action="append",
                        choices=list(spec.WORKLOADS),
                        help="repeatable; default: all six")
    parser.add_argument("--seconds", type=float,
                        default=spec.RUN_SECONDS,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1),
                        help="add the traced rounds and the layer "
                        "microbenchmarks; report per-layer metrics")
    parser.add_argument("--out", metavar="DIR",
                        help="write result.json (and spans.json)")
    parser.add_argument("--table", nargs="?", const=True, default=False,
                        metavar="FILE", help="print the Fig. 7-shaped "
                        "table of this run, or of FILE and exit")
    parser.add_argument("--smoke", action="store_true",
                        help="one round at reduced sizes; results are "
                        "stamped non-comparable")
    args = parser.parse_args(argv)
    if isinstance(args.table, str):
        from . import report
        print(report.table(json.loads(Path(args.table).read_text())))
        return 0
    return run(args)
