"""Prometheus text exposition (format version 0.0.4).

Renders a :class:`~repro.metrics.registry.MetricRegistry` as the plain
text format every Prometheus-compatible scraper understands::

    # HELP rtm_engine_events_total Events processed by the engine.
    # TYPE rtm_engine_events_total counter
    rtm_engine_events_total 123456

Only the subset the registry needs is implemented: counter, gauge and
histogram families with escaped HELP text and label values, histogram
``_bucket``/``_sum``/``_count`` series with cumulative ``le`` bounds.
"""

from __future__ import annotations

import functools
import re
from typing import Dict, Tuple

from .registry import MetricRegistry

__all__ = ["CONTENT_TYPE", "expose", "family_total", "format_labels",
           "parse_exposition"]

#: The Content-Type header Prometheus expects from a /metrics endpoint.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(value: str) -> str:
    return (value.replace("\\", "\\\\").replace("\n", "\\n")
            .replace('"', '\\"'))


def format_labels(labels: Dict[str, str]) -> str:
    """``{a="x",b="y"}`` or the empty string for no labels."""
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(str(v))}"'
                     for k, v in labels.items())
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


@functools.lru_cache(maxsize=64)
def _bucket_les(bounds: Tuple[float, ...]) -> Tuple[str, ...]:
    """``le="..."`` for each bound of a histogram and for ``+Inf``:
    one string per bucket line, rendered once per bounds tuple."""
    return tuple(f'le="{_format_value(float(bound))}"'
                 for bound in (*bounds, float("inf")))


def expose(registry: MetricRegistry) -> str:
    """Render every family in *registry* (collectors run first).

    A child's label set never changes, so its ``{a="x",b="y"}`` is
    rendered (escaped) at its first scrape and kept on the family;
    every later line splices the kept string."""
    lines = []
    for metric in registry.metrics():
        name = metric.name
        if metric.help:
            lines.append(f"# HELP {name} {_escape_help(metric.help)}")
        lines.append(f"# TYPE {name} {metric.type}")
        histogram = metric.type == "histogram"
        rendered = metric._label_bodies
        for label_values, child in metric.samples():
            labels = rendered.get(label_values)
            if labels is None:
                labels = rendered[label_values] = format_labels(
                    dict(zip(metric.labelnames, label_values)))
            if histogram:
                _expose_histogram(lines, name, labels, child)
            else:
                lines.append(f"{name}{labels} "
                             f"{_format_value(child.value)}")
    return "\n".join(lines) + "\n" if lines else ""


#: One sample line: name, optional {labels}, value (timestamp ignored).
_PARSE_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(.*)\})?"
    r"\s+(\S+)(?:\s+\S+)?$")

#: One label pair inside {...}; values use the exposition escaping.
_PARSE_LABEL_RE = re.compile(
    r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')

_PARSE_TYPE_RE = re.compile(
    r"^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (\S+)")


def _unescape_label_value(value: str) -> str:
    return (value.replace('\\"', '"').replace("\\n", "\n")
            .replace("\\\\", "\\"))


def _parse_value(raw: str) -> float:
    if raw == "+Inf":
        return float("inf")
    if raw == "-Inf":
        return float("-inf")
    return float(raw)


def parse_exposition(text: str) -> Dict[str, Dict[str, object]]:
    """Parse a Prometheus text exposition back into families.

    The inverse direction of :func:`expose`, for consumers that only
    see rendered text — the historian sampling a gateway's federated
    ``/metrics``, alert rules over scraped families.  Returns::

        {name: {"type": "counter"|"gauge"|"histogram"|"untyped",
                "samples": [(labels_dict, value), ...]}}

    Histogram sub-series keep their rendered names (``X_bucket``,
    ``X_sum``, ``X_count``) as their own entries, typed after the
    declared base family, so a rule can target ``X_count`` directly.
    Damage doctrine matches the journal's: unparseable lines are
    skipped, never fatal.
    """
    families: Dict[str, Dict[str, object]] = {}
    types: Dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            match = _PARSE_TYPE_RE.match(line)
            if match:
                types[match.group(1)] = match.group(2)
            continue
        match = _PARSE_SAMPLE_RE.match(line)
        if match is None:
            continue  # noise, torn line: skip, keep going
        name, label_body, raw_value = match.groups()
        try:
            value = _parse_value(raw_value)
        except ValueError:
            continue
        labels = {key: _unescape_label_value(val)
                  for key, val in
                  _PARSE_LABEL_RE.findall(label_body or "")}
        family = families.get(name)
        if family is None:
            declared = types.get(name)
            if declared is None:
                for suffix in ("_bucket", "_sum", "_count"):
                    if name.endswith(suffix):
                        declared = types.get(name[:-len(suffix)])
                        break
            family = {"type": declared or "untyped", "samples": []}
            families[name] = family
        family["samples"].append((labels, value))
    return families


def family_total(families: Dict[str, Dict[str, object]], name: str,
                 labels: Dict[str, str] = None) -> Tuple[float, int]:
    """Sum every sample of *name* whose labels are a superset of
    *labels*; returns ``(total, matched_sample_count)``.  The
    aggregation campaign comparison and label-subset alert rules
    share."""
    family = families.get(name)
    if family is None:
        return 0.0, 0
    wanted = labels or {}
    total, matched = 0.0, 0
    for sample_labels, value in family["samples"]:
        if all(sample_labels.get(k) == v for k, v in wanted.items()):
            total += value
            matched += 1
    return total, matched


def _expose_histogram(lines, name: str, labels: str, child) -> None:
    """Bucket, sum and count lines of one child; ``le`` is spliced in
    after the child's own rendered *labels* (``{...}`` or empty)."""
    bucket = f"{name}_bucket{labels[:-1]}," if labels \
        else f"{name}_bucket{{"
    cumulative = 0
    for le, count in zip(_bucket_les(child.bounds), child.counts):
        cumulative += count
        lines.append(f"{bucket}{le}}} {cumulative}")
    lines.append(f"{name}_sum{labels} {_format_value(child.sum)}")
    lines.append(f"{name}_count{labels} {child.count}")
