"""What is done with a result document: the driver's result line, the
by-name listing, the Fig. 7-shaped table, and ``compare``."""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from . import spec as names

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def failed_checks(document: Dict[str, Any]) -> List[Dict[str, Any]]:
    blocks = list(document["workloads"].values())
    return [check for block in blocks for check in block["checks"]
            if not check["ok"]] \
        + [c for c in document["checks"] if not c["ok"]]


def result_line(document: Dict[str, Any]) -> Dict[str, Any]:
    """The contract's last line.  With tracing off the metrics are the
    end-to-end ones; traced, every per-layer metric, 0 where the
    workload does not exercise that layer.  Several workloads in one
    run are told apart as ``metric@workload``."""
    blocks = document["workloads"]
    several = len(blocks) > 1
    metrics: Dict[str, Dict[str, Any]] = {}
    for workload, block in blocks.items():
        suffix = f"@{workload}" if several else ""
        if document["trace"]:
            measured = {**document["layers"], **block["layers"]}
            for metric in names.PER_LAYER:
                value = measured.get(metric.name, {}).get("value", 0.0)
                metrics[metric.name + suffix] = {"value": value,
                                                 "unit": metric.unit}
        else:
            for metric, entry in block["end_to_end"].items():
                metrics[metric + suffix] = {"value": entry["value"],
                                            "unit": entry["unit"]}
    return {"correct": not failed_checks(document),
            "attempted": max(1, sum(b["ops"] for b in blocks.values())),
            "failed": sum(b["failed"] for b in blocks.values()),
            "metrics": metrics}


def listing(document: Dict[str, Any]) -> str:
    """Every metric by name with its unit, one per line."""
    lines = []
    for workload, block in document["workloads"].items():
        lines.append(f"== {workload}: {block['ops']} operations, "
                     f"{block['failed']} failed, "
                     f"{sum(c['ok'] for c in block['checks'])}/"
                     f"{len(block['checks'])} checks ok")
        for metric, entry in block["end_to_end"].items():
            lines.append(f"{metric + '@' + workload:34s} "
                         f"{entry['value']:14.6g} {entry['unit']:8s} "
                         f"n={entry['n']}")
        for metric, entry in block["layers"].items():
            lines.append(f"  {metric + '@' + workload:42s} "
                         f"{entry['value']:14.6g} {entry['unit']:8s} "
                         f"n={entry['n']}")
    if document["layers"]:
        lines.append("== layers (microbenchmarks)")
        for metric, entry in document["layers"].items():
            lines.append(f"  {metric:42s} {entry['value']:14.6g} "
                         f"{entry['unit']}")
    for check in failed_checks(document):
        lines.append(f"FAILED CHECK {check['name']}: {check['detail']}")
    return "\n".join(lines)


def table(document: Dict[str, Any]) -> str:
    """The Fig. 7 shape: one row per workload, wall time beside the
    bare twin it is a ratio of."""
    host = document["host"]
    lines = [
        f"=== rtmbench seed {document['seed']}: host time by workload "
        f"(medians) ===",
        f"host: {host['nproc']} cores, Python {host['python']}, "
        f"commit {host['commit']}, load {host['load1']}"
        + ("" if document["comparable"] else "  [smoke: NOT comparable]"),
        f"{'workload':14s}{'wall_s':>10s}{'x twin':>9s}"
        f"{'overhead%':>11s}{'events/s':>11s}{'setup_s':>9s}"
        f"{'rss_MB':>8s}{'api_p50_ms':>12s}{'ops':>7s}{'failed':>7s}"]
    for workload, block in document["workloads"].items():
        e2e = {m: v["value"] for m, v in block["end_to_end"].items()}
        if not e2e:
            lines.append(f"{workload:14s}  (no completed round)")
            continue
        api = block["layers"].get("core.api_p50_ms", {}).get("value")
        lines.append(
            f"{workload:14s}{e2e['wall_s']:10.3f}"
            f"{e2e['overhead_ratio']:9.3f}"
            f"{(e2e['overhead_ratio'] - 1) * 100:11.1f}"
            f"{e2e['events_per_s']:11.0f}{e2e['setup_s']:9.3f}"
            f"{e2e['peak_rss_mb']:8.1f}"
            + (f"{api:12.2f}" if api is not None else f"{'-':>12s}")
            + f"{block['ops']:7d}{block['failed']:7d}")
    lines.append("x twin: wall_s / the plain platform.run() twin of the "
                 "same round (see README: overhead_ratio)")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def _load_side(path: str) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> samples.  A file gives its per-round
    samples; a directory of result files gives one median per file,
    which is how ten seeds of one commit are compared with ten of
    another."""
    target = Path(path)
    files = sorted(target.glob("*.json")) if target.is_dir() else [target]
    documents = [json.loads(f.read_text()) for f in files]
    side: Dict[Tuple[str, str], List[float]] = {}
    for document in documents:
        for workload, block in document.get("workloads", {}).items():
            for metric, entry in block["end_to_end"].items():
                side.setdefault((workload, metric), []).extend(
                    entry["samples"] if len(documents) == 1
                    else [entry["value"]])
    return side


def _spread(samples: List[float]) -> Optional[float]:
    """Distance between the quartiles as a share of the median."""
    if len(samples) < 2:
        return None
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)


def compare(path_a: str, path_b: str) -> Tuple[str, bool]:
    """One row per (workload, end-to-end metric); returns the table
    and whether any row is ``worse``."""
    bounds = {m["name"]: m for m in
              json.loads(BENCHMARK_JSON.read_text())["end_to_end"]}
    side_a, side_b = _load_side(path_a), _load_side(path_b)
    lines = [f"A = {path_a}\nB = {path_b}\n"
             f"{'workload':13s}{'metric':16s}{'A median':>12s}"
             f"{'B median':>12s}{'B/A':>8s}{'bound':>7s}"
             f"{'spread A':>10s}{'spread B':>10s}  verdict"]
    any_worse = False
    for key in sorted(side_a.keys() & side_b.keys()):
        workload, metric = key
        rule = bounds[metric]
        a = statistics.median(side_a[key])
        b = statistics.median(side_b[key])
        ratio = b / a
        worsening = ratio - 1 if rule["better"] == "lower" \
            else 1 - ratio
        spreads = [_spread(side_a[key]), _spread(side_b[key])]
        if any(s is not None and s > rule["bound"] for s in spreads):
            verdict = "unresolved"
        elif worsening > rule["bound"]:
            verdict = "worse"
            any_worse = True
        else:
            verdict = "same"
        lines.append(
            f"{workload:13s}{metric:16s}{a:12.5g}{b:12.5g}"
            f"{ratio:8.3f}{rule['bound']:7.2f}"
            + "".join(f"{s:10.3f}" if s is not None else f"{'n=1':>10s}"
                      for s in spreads) + f"  {verdict}")
    for workload in sorted({key[0] for key in
                            side_a.keys() ^ side_b.keys()}):
        lines.append(f"{workload:13s}only on one side")
    lines.append("B/A: B's median over A's (base A); spread: distance "
                 "between a side's own quartiles over its median")
    return "\n".join(lines), any_worse
