"""Overhead attribution: from sampled stacks to named layers.

The ROADMAP's top perf item — cutting the measured 51–163% monitoring
overhead toward the paper's near-free passive mode — needs to know
*which layer* the overhead lives in.  This module classifies every
sampled frame by module path into one of a small set of named layers:

========== ==========================================================
Layer      Module-path rule
========== ==========================================================
hooks      ``repro/akita/hooks.py`` (the fan-out machinery itself)
engine     the rest of ``repro/akita/`` (event dispatch, ports,
           buffers, connections — the simulator substrate)
metrics    ``repro/metrics/``
trace      ``repro/trace/``
faults     ``repro/faults/``
server     ``repro/core/http.py`` (transport, dispatch),
           ``repro/core/server.py`` (routes) + the stdlib socket stack
profiler   ``repro/profile/``
fleet      ``repro/fleet/``
monitor    the rest of ``repro/core/`` + historian + checkpoint, and
           ``repro/akita/threads.py`` (the periodic loop's own frame)
workload   ``repro/gpu/``, ``repro/workloads/``, ``repro/studies/``
idle       a leaf parked in ``threading.py`` (``Event.wait``,
           ``Condition.wait``, ``join``) — the thread exists but burns
           nothing; charging its caller would inflate that layer
other      everything else (user code, stdlib leaves)
========== ==========================================================

A *sample* is attributed to the layer of its leaf-most classifiable
frame: a stdlib frame (``json.dumps``, ``time.sleep``) defers to its
caller, so time spent inside library calls is charged to the layer
that made them — the attribution question is "who asked for this
time", not "whose file was on top".

The same module also merges and diffs the compact **profile
summaries** that ride the fleet control channel and the historian:
``{layers, threads, functions, stacks}`` dictionaries small enough to
journal, yet rich enough to rebuild a speedscope view of a whole
campaign.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: A sampled frame: (function name, source path, first line number).
Frame = Tuple[str, str, int]
#: A sampled stack, leaf-first.
Stack = Tuple[Frame, ...]

#: Ordered (path substring, layer) rules; first match wins.
PATH_RULES: Tuple[Tuple[str, str], ...] = (
    ("repro/akita/hooks", "hooks"),
    ("repro/akita/threads", "monitor"),
    ("repro/akita/", "engine"),
    ("repro/metrics/", "metrics"),
    ("repro/trace/", "trace"),
    ("repro/faults/", "faults"),
    ("repro/core/http", "server"),
    ("repro/core/server", "server"),
    ("repro/profile/", "profiler"),
    ("repro/fleet/", "fleet"),
    ("repro/historian/", "monitor"),
    ("repro/checkpoint/", "monitor"),
    ("repro/core/", "monitor"),
    ("repro/gpu/", "workload"),
    ("repro/workloads/", "workload"),
    ("repro/studies/", "workload"),
    ("socketserver", "server"),
    ("/socket.py", "server"),
    ("/selectors.py", "server"),
)

#: Leaf function names in ``threading.py`` that mean "parked", not
#: "working" — samples landing on them become the ``idle`` layer.
IDLE_LEAVES = frozenset({"wait", "_wait_for_tstate_lock", "join"})

#: Every layer name the rules can produce (+ the specials).
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(
    [layer for _, layer in PATH_RULES])) + ("idle", "other")

_classify_cache: Dict[str, Optional[str]] = {}


def classify_path(path: str) -> Optional[str]:
    """Layer of one source path, or None when no rule matches
    (the frame then defers to its caller)."""
    layer = _classify_cache.get(path)
    if layer is None and path not in _classify_cache:
        normalized = path.replace("\\", "/")
        layer = next((lay for fragment, lay in PATH_RULES
                      if fragment in normalized), None)
        _classify_cache[path] = layer
    return layer


def classify_stack(stack: Sequence[Frame]) -> str:
    """Attribute one leaf-first stack to a layer: the leaf-most frame
    a rule recognizes; ``other`` when none does.  A leaf parked in
    ``threading.py`` is ``idle`` regardless of who parked it."""
    if stack:
        name, path, _ = stack[0]
        if name in IDLE_LEAVES and path.replace(
                "\\", "/").endswith("/threading.py"):
            return "idle"
    for _, path, _ in stack:
        layer = classify_path(path)
        if layer is not None:
            return layer
    return "other"


def classify_frame(frame: Frame) -> str:
    """Layer label for one frame in isolation (function tables)."""
    name, path, _ = frame
    if name in IDLE_LEAVES and path.replace(
            "\\", "/").endswith("/threading.py"):
        return "idle"
    return classify_path(path) or "other"


# ----------------------------------------------------------------------
# Reports over stack maps (role -> stack -> seconds)
# ----------------------------------------------------------------------
def layer_seconds(stacks: Dict[str, Dict[Stack, float]]
                  ) -> Dict[str, Dict[str, float]]:
    """Per-thread-role, per-layer seconds of one stack map."""
    out: Dict[str, Dict[str, float]] = {}
    for role, per_stack in stacks.items():
        layers = out.setdefault(role, {})
        for stack, seconds in per_stack.items():
            layer = classify_stack(stack)
            layers[layer] = layers.get(layer, 0.0) + seconds
    return out


def function_totals(stacks: Dict[str, Dict[Stack, float]]
                    ) -> Dict[Frame, Dict[str, float]]:
    """Self/total seconds per function across every role."""
    totals: Dict[Frame, Dict[str, float]] = {}
    for per_stack in stacks.values():
        for stack, seconds in per_stack.items():
            if not stack:
                continue
            leaf = stack[0]
            entry = totals.setdefault(leaf, {"self": 0.0, "total": 0.0})
            entry["self"] += seconds
            for frame in set(stack):
                totals.setdefault(frame,
                                  {"self": 0.0, "total": 0.0}
                                  )["total"] += seconds
    return totals


def ranked_functions(stacks: Dict[str, Dict[Stack, float]], top: int
                     ) -> List[Tuple[Frame, Dict[str, float]]]:
    """The *top* functions by self time (pprof's "flat" ordering — the
    first question is where time is actually spent), total time as the
    tiebreaker."""
    return sorted(function_totals(stacks).items(),
                  key=lambda item: (item[1]["self"], item[1]["total"]),
                  reverse=True)[:top]


def attribution_report(stacks: Dict[str, Dict[Stack, float]],
                       duration: float, samples: int,
                       top: int = 20) -> Dict[str, Any]:
    """The overhead-attribution report: Figure 7's overhead decomposed
    into named layers, plus the top functions of each layer."""
    per_role = layer_seconds(stacks)
    layers: Dict[str, float] = {}
    for role_layers in per_role.values():
        for layer, seconds in role_layers.items():
            layers[layer] = layers.get(layer, 0.0) + seconds
    total = sum(layers.values())
    return {
        "duration": round(duration, 3),
        "samples": samples,
        "sampled_seconds": round(total, 4),
        "layers": {layer: round(sec, 4)
                   for layer, sec in sorted(layers.items(),
                                            key=lambda kv: -kv[1])},
        "threads": {role: {layer: round(sec, 4)
                           for layer, sec in sorted(role_layers.items(),
                                                    key=lambda kv: -kv[1])}
                    for role, role_layers in per_role.items()},
        "functions": [{
            "name": frame[0], "file": frame[1], "line": frame[2],
            "layer": classify_frame(frame),
            "self": round(stats["self"], 4),
            "total": round(stats["total"], 4),
        } for frame, stats in ranked_functions(stacks, top)],
    }


# ----------------------------------------------------------------------
# Compact summaries (fleet control channel / historian payloads)
# ----------------------------------------------------------------------
def make_summary(stacks: Dict[str, Dict[Stack, float]],
                 duration: float, samples: int,
                 top_functions: int = 40,
                 top_stacks: int = 250) -> Dict[str, Any]:
    """A JSON-able digest of a stack map, bounded in size so it can
    ride a control-channel line or a historian row."""
    report = attribution_report(stacks, duration, samples,
                                top=top_functions)
    flat: List[Tuple[str, Stack, float]] = [
        (role, stack, seconds)
        for role, per_stack in stacks.items()
        for stack, seconds in per_stack.items()]
    flat.sort(key=lambda item: item[2], reverse=True)
    kept = flat[:top_stacks]
    return {
        "duration": report["duration"],
        "samples": report["samples"],
        "sampled_seconds": report["sampled_seconds"],
        "layers": report["layers"],
        "threads": {role: round(sum(layers.values()), 4)
                    for role, layers in report["threads"].items()},
        "functions": report["functions"],
        "stacks": [{"role": role,
                    "frames": [list(frame) for frame in stack],
                    "seconds": round(seconds, 4)}
                   for role, stack, seconds in kept],
        "stacks_dropped": max(0, len(flat) - len(kept)),
    }


def summary_stack_map(summary: Dict[str, Any]
                      ) -> Dict[str, Dict[Stack, float]]:
    """Rebuild a stack map from one (or a merged) summary."""
    stacks: Dict[str, Dict[Stack, float]] = {}
    for row in summary.get("stacks", []):
        stack: Stack = tuple((str(f[0]), str(f[1]), int(f[2]))
                             for f in row["frames"])
        per = stacks.setdefault(row.get("role", "other"), {})
        per[stack] = per.get(stack, 0.0) + float(row["seconds"])
    return stacks


def merge_summaries(summaries: Iterable[Dict[str, Any]],
                    top_functions: int = 40,
                    top_stacks: int = 500) -> Dict[str, Any]:
    """Fold many per-job summaries into one campaign-wide summary."""
    merged: Dict[str, Any] = {
        "duration": 0.0, "samples": 0, "sampled_seconds": 0.0,
        "layers": {}, "threads": {}, "functions": [], "stacks": [],
        "stacks_dropped": 0, "jobs": 0,
    }
    functions: Dict[Tuple[str, str, int], Dict[str, Any]] = {}
    stacks: Dict[Tuple[str, Tuple[Tuple[str, str, int], ...]], float] = {}
    for summary in summaries:
        if not summary:
            continue
        merged["jobs"] += 1
        merged["duration"] = round(
            merged["duration"] + float(summary.get("duration", 0.0)), 3)
        merged["samples"] += int(summary.get("samples", 0))
        merged["sampled_seconds"] = round(
            merged["sampled_seconds"]
            + float(summary.get("sampled_seconds", 0.0)), 4)
        merged["stacks_dropped"] += int(summary.get("stacks_dropped", 0))
        for layer, sec in summary.get("layers", {}).items():
            merged["layers"][layer] = round(
                merged["layers"].get(layer, 0.0) + float(sec), 4)
        for role, sec in summary.get("threads", {}).items():
            merged["threads"][role] = round(
                merged["threads"].get(role, 0.0) + float(sec), 4)
        for fn in summary.get("functions", []):
            key = (fn["name"], fn["file"], int(fn["line"]))
            entry = functions.setdefault(key, {
                "name": fn["name"], "file": fn["file"],
                "line": int(fn["line"]),
                "layer": fn.get("layer", "other"),
                "self": 0.0, "total": 0.0})
            entry["self"] = round(entry["self"] + float(fn["self"]), 4)
            entry["total"] = round(entry["total"] + float(fn["total"]), 4)
        for row in summary.get("stacks", []):
            key = (row.get("role", "other"),
                   tuple((str(f[0]), str(f[1]), int(f[2]))
                         for f in row["frames"]))
            stacks[key] = stacks.get(key, 0.0) + float(row["seconds"])
    merged["layers"] = dict(sorted(merged["layers"].items(),
                                   key=lambda kv: -kv[1]))
    merged["functions"] = sorted(
        functions.values(),
        key=lambda fn: (fn["self"], fn["total"]),
        reverse=True)[:top_functions]
    ranked_stacks = sorted(stacks.items(), key=lambda kv: -kv[1])
    merged["stacks_dropped"] += max(0, len(ranked_stacks) - top_stacks)
    merged["stacks"] = [
        {"role": role, "frames": [list(frame) for frame in stack],
         "seconds": round(seconds, 4)}
        for (role, stack), seconds in ranked_stacks[:top_stacks]]
    return merged


def diff_summaries(a: Dict[str, Any], b: Dict[str, Any],
                   top: int = 20) -> Dict[str, Any]:
    """"Which function regressed" as data: per-layer and per-function
    deltas between two summaries (positive delta = b spent more)."""
    layers: Dict[str, Dict[str, float]] = {}
    for layer in set(a.get("layers", {})) | set(b.get("layers", {})):
        sec_a = float(a.get("layers", {}).get(layer, 0.0))
        sec_b = float(b.get("layers", {}).get(layer, 0.0))
        layers[layer] = {
            "a": round(sec_a, 4), "b": round(sec_b, 4),
            "delta": round(sec_b - sec_a, 4),
            "ratio": round(sec_b / sec_a, 4) if sec_a else None,
        }
    fn_a = {(f["name"], f["file"]): f for f in a.get("functions", [])}
    fn_b = {(f["name"], f["file"]): f for f in b.get("functions", [])}
    functions = []
    for key in set(fn_a) | set(fn_b):
        sec_a = float(fn_a.get(key, {}).get("self", 0.0))
        sec_b = float(fn_b.get(key, {}).get("self", 0.0))
        ref = fn_b.get(key) or fn_a.get(key) or {}
        functions.append({
            "name": key[0], "file": key[1],
            "layer": ref.get("layer", "other"),
            "a": round(sec_a, 4), "b": round(sec_b, 4),
            "delta": round(sec_b - sec_a, 4),
        })
    functions.sort(key=lambda fn: abs(fn["delta"]), reverse=True)
    return {
        "duration": {"a": a.get("duration", 0.0),
                     "b": b.get("duration", 0.0)},
        "sampled_seconds": {"a": a.get("sampled_seconds", 0.0),
                            "b": b.get("sampled_seconds", 0.0)},
        "layers": dict(sorted(layers.items(),
                              key=lambda kv: -abs(kv[1]["delta"]))),
        "functions": functions[:top],
    }
