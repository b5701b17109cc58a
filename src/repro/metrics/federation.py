"""Federating Prometheus expositions from many workers into one scrape.

The fleet gateway and the shard coordinator each merge N expositions
that all use the *same* family names (every worker runs the same
instrumentation).  Two things make the merge non-trivial:

* every sample needs identity labels so the series stay distinguishable
  downstream — ``worker="wN",job="fir-c1"`` for the fleet, where one
  long-lived worker produces expositions for *many* jobs, and
  ``shard="k"`` for a sharded run (:func:`inject_labels`);
* ``# HELP``/``# TYPE`` headers must appear exactly once per family and
  all samples of a family must stay contiguous, as the text format
  requires (:func:`federate` re-groups lines by family).

Only the exposition *text* is touched — the gateway never needs to parse
values, so a worker publishing a family the gateway has never heard of
federates just fine.

:func:`federate_sources` is the front-door loop both callers share:
cached final exposition, else a live :func:`scrape`, else a comment.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Optional, Tuple
from urllib.request import Request, urlopen

__all__ = ["SCRAPE_TIMEOUT", "inject_labels",
           "federate", "federate_sources", "scrape"]

#: Per-worker scrape/proxy timeout: a wedged worker must not hold the
#: whole federated scrape hostage.
SCRAPE_TIMEOUT = 5.0

#: ``metric_name{labels} value [timestamp]`` — group 1 the name, group 2
#: the (optional) brace block, group 3 the rest of the line.
_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{.*\})?( .+)$")

_HEADER_RE = re.compile(r"^# (HELP|TYPE) ([a-zA-Z_:][a-zA-Z0-9_:]*) ?(.*)$")


def _escape(value: str) -> str:
    return (value.replace("\\", "\\\\").replace("\n", "\\n")
            .replace('"', '\\"'))


def inject_labels(text: str, labels: Dict[str, str]) -> str:
    """Add every ``label="value"`` pair to every sample line.

    Comment and blank lines pass through untouched; samples that already
    carry labels get the new pairs prepended
    (``{worker="w1",job="fir-c1",le="0.5"}``), bare samples grow a brace
    block.  A sample that already has one of the labels keeps its
    existing value for that label — the injected pair simply is not
    added twice — while the remaining pairs are still injected.
    """
    out: List[str] = []
    pairs = [(f'{label}="{_escape(value)}"', f'{label}="')
             for label, value in labels.items()]
    for line in text.splitlines():
        match = _SAMPLE_RE.match(line)
        if match is None or line.startswith("#"):
            out.append(line)
            continue
        name, braces, rest = match.groups()
        inner = braces[1:-1] if braces else ""
        missing = [pair for pair, prefix in pairs
                   if not (inner.startswith(prefix)
                           or f",{prefix}" in f",{inner}")]
        if not missing:
            out.append(line)
            continue
        injected = ",".join(missing)
        if inner:
            out.append(f"{name}{{{injected},{inner}}}{rest}")
        else:
            out.append(f"{name}{{{injected}}}{rest}")
    return "\n".join(out) + ("\n" if text.endswith("\n") else "")


def _family_of(sample_name: str, known: Iterable[str]) -> str:
    """Histogram series (``_bucket``/``_sum``/``_count``) belong to the
    base family whose TYPE header we saw; everything else is its own."""
    for suffix in ("_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            base = sample_name[: -len(suffix)]
            if base in known:
                return base
    return sample_name


def federate(expositions: Iterable[Tuple[Dict[str, str], str]],
             preamble: str = "") -> str:
    """Merge ``(labels, exposition_text)`` pairs into one document.

    *labels* is the dict of identity pairs injected into every sample
    of that exposition (e.g. ``{"worker": "w1", "job": "fir-c1"}``).
    Families are re-grouped so all samples of a name are contiguous,
    and HELP/TYPE headers are emitted once per family (first
    exposition's wording wins).  *preamble* is prepended verbatim (the
    gateway's own, un-labelled, fleet-level families).
    """
    help_lines: Dict[str, str] = {}
    type_lines: Dict[str, str] = {}
    samples: Dict[str, List[str]] = {}
    order: List[str] = []

    def bucket(family: str) -> List[str]:
        if family not in samples:
            samples[family] = []
            order.append(family)
        return samples[family]

    for labels, text in expositions:
        labelled = inject_labels(text, labels)
        for line in labelled.splitlines():
            if not line.strip():
                continue
            header = _HEADER_RE.match(line)
            if header is not None:
                kind, family, _ = header.groups()
                bucket(family)
                target = help_lines if kind == "HELP" else type_lines
                target.setdefault(family, line)
                continue
            if line.startswith("#"):
                continue  # stray comments don't federate
            match = _SAMPLE_RE.match(line)
            if match is None:
                continue  # malformed line: drop rather than corrupt
            family = _family_of(match.group(1), samples)
            bucket(family).append(line)

    lines: List[str] = []
    if preamble:
        lines.extend(preamble.rstrip("\n").splitlines())
    for family in order:
        rows = samples[family]
        if not rows and family not in type_lines:
            continue
        if family in help_lines:
            lines.append(help_lines[family])
        if family in type_lines:
            lines.append(type_lines[family])
        lines.extend(rows)
    return "\n".join(lines) + "\n" if lines else ""


def scrape(url: str, path: str) -> str:
    """GET ``url + path`` from a worker's own server, as text.  Raises
    :class:`OSError` (``URLError``, timeouts, resets) on failure."""
    with urlopen(Request(url + path, method="GET"),
                 timeout=SCRAPE_TIMEOUT) as response:
        return response.read().decode("utf-8", "replace")


def federate_sources(sources: Iterable[Tuple[
                         str, Dict[str, str], Optional[str],
                         Optional[str]]],
                     preamble: str = "") -> str:
    """One exposition from ``(name, labels, final_text, url)`` sources.

    A source's *final_text* (the complete run, cached when it ended)
    wins over a live scrape of *url* (a moment of it), so every source
    contributes exactly one set of series no matter when the scrape
    lands.  A source with neither, or whose scrape fails, becomes a
    trailing ``# <name> unreachable: <reason>`` comment, never an
    error — monitoring must not take down the run it watches.
    """
    expositions: List[Tuple[Dict[str, str], str]] = []
    unreachable: List[str] = []
    for name, labels, text, url in sources:
        reason = "no URL to scrape"
        if text is None and url:
            try:
                text = scrape(url, "/metrics")
            except OSError as exc:
                reason = str(exc)
        if text is None:
            unreachable.append(f"# {name} unreachable: {reason}\n")
        else:
            expositions.append((labels, text))
    return federate(expositions, preamble=preamble) + "".join(unreachable)
