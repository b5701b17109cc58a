"""Profile exporters: collapsed stacks (FlameGraph) and speedscope.

Both formats are fed from the same *stack map* — ``{thread role:
{leaf-first stack: seconds}}`` — which is what the continuous profiler
accumulates and what :func:`repro.profile.attribution.summary_stack_map`
rebuilds from a fleet/historian summary.

* **Collapsed stacks** is Brendan Gregg's one-line-per-stack format
  (``frame;frame;frame weight``), consumed by ``flamegraph.pl`` and
  every flame-graph viewer since.  Weights are integer microseconds.
* **speedscope** is the JSON file format of https://www.speedscope.app
  (an "evented"/"sampled" profile container); the export here is a
  ``sampled`` profile per thread role, unit seconds.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .attribution import Frame, Stack

SPEEDSCOPE_SCHEMA = "https://www.speedscope.app/file-format-schema.json"


def frame_label(frame: Frame) -> str:
    """Human label for one frame: ``func (pkg/path.py:line)`` with the
    path shortened to its interesting tail."""
    name, path, line = frame
    normalized = path.replace("\\", "/")
    idx = normalized.rfind("repro/")
    short = normalized[idx:] if idx >= 0 \
        else normalized.rsplit("/", 1)[-1]
    return f"{name} ({short}:{line})"


def collapsed_stacks(stacks: Dict[str, Dict[Stack, float]],
                     role: Optional[str] = None) -> str:
    """The stack map as collapsed-stack text, root-first, weighted in
    integer microseconds.  With *role* set, only that thread's stacks;
    otherwise every role, prefixed by ``role;`` as the root frame."""
    lines: List[str] = []
    for stack_role in sorted(stacks):
        if role is not None and stack_role != role:
            continue
        for stack, seconds in sorted(stacks[stack_role].items(),
                                     key=lambda kv: -kv[1]):
            weight = int(round(seconds * 1e6))
            if weight <= 0 or not stack:
                continue
            frames = [frame_label(f) for f in reversed(stack)]
            if role is None:
                frames.insert(0, stack_role)
            lines.append(";".join(frames) + f" {weight}")
    return "\n".join(lines) + ("\n" if lines else "")


def speedscope_document(stacks: Dict[str, Dict[Stack, float]],
                        name: str = "repro profile") -> Dict[str, Any]:
    """The stack map as one speedscope file: one ``sampled`` profile
    per thread role over a shared frame table."""
    frame_index: Dict[Frame, int] = {}
    frames: List[Dict[str, Any]] = []

    def index_of(frame: Frame) -> int:
        idx = frame_index.get(frame)
        if idx is None:
            idx = len(frames)
            frame_index[frame] = idx
            frames.append({"name": frame_label(frame),
                           "file": frame[1], "line": frame[2]})
        return idx

    profiles: List[Dict[str, Any]] = []
    for role in sorted(stacks):
        samples: List[List[int]] = []
        weights: List[float] = []
        total = 0.0
        for stack, seconds in sorted(stacks[role].items(),
                                     key=lambda kv: -kv[1]):
            if seconds <= 0.0 or not stack:
                continue
            # speedscope wants root-first frame index lists.
            samples.append([index_of(f) for f in reversed(stack)])
            weights.append(round(seconds, 6))
            total += seconds
        profiles.append({
            "type": "sampled",
            "name": role,
            "unit": "seconds",
            "startValue": 0,
            "endValue": round(total, 6),
            "samples": samples,
            "weights": weights,
        })
    return {
        "$schema": SPEEDSCOPE_SCHEMA,
        "name": name,
        "exporter": "repro.profile",
        "activeProfileIndex": 0,
        "shared": {"frames": frames},
        "profiles": profiles,
    }
