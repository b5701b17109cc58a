"""Hierarchical component naming.

Akita names components with dotted, indexed paths such as
``GPU[1].SA[3].L1VCache[0]``.  AkitaRTM's component tree view is built by
tokenizing these names, so the tooling here is shared by the simulator
(which constructs names) and the monitor (which parses them).
"""

from __future__ import annotations

import re
from typing import List, Tuple

_SEGMENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*(\[\d+\])*$")


def indexed(base: str, *indices: int) -> str:
    """``indexed("SA", 3)`` → ``"SA[3]"``; multiple indices nest."""
    return base + "".join(f"[{i}]" for i in indices)


def join(*parts: str) -> str:
    """Join name segments with dots, skipping empty parts."""
    return ".".join(p for p in parts if p)


def is_valid_segment(segment: str) -> bool:
    """True if *segment* is a legal single name segment."""
    return bool(_SEGMENT_RE.match(segment))


def validate(name: str) -> None:
    """Raise ``ValueError`` unless every dotted segment of *name* is legal."""
    if not name:
        raise ValueError("empty component name")
    for segment in name.split("."):
        if not is_valid_segment(segment):
            raise ValueError(
                f"illegal name segment {segment!r} in {name!r}")


def split_indexed(segment: str) -> Tuple[str, List[int]]:
    """Split ``"SA[3]"`` into ``("SA", [3])``.

    >>> split_indexed("L1VROB[0]")
    ('L1VROB', [0])
    """
    base = segment.split("[", 1)[0]
    indices = [int(m) for m in re.findall(r"\[(\d+)\]", segment)]
    return base, indices


def parent(name: str) -> str:
    """Dotted parent of *name*, or ``""`` for a root name."""
    head, _, __ = name.rpartition(".")
    return head
