"""Parent side of the child protocol, and the span recorder.

The benchmark process is single-threaded: it writes a command, then
either blocks for the answer or generates load while polling the
child's stdout between requests.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

#: Seconds a child may stay silent before the run counts as failed.
EVENT_TIMEOUT = 120.0


class ChildError(RuntimeError):
    """The child died, timed out or spoke out of turn."""


class Spans:
    """In-memory span log: ``{id, name, layer, start, end, parent,
    run_id}``.  Written out once, at exit, by the CLI."""

    def __init__(self) -> None:
        self.rows: List[Dict[str, Any]] = []

    def add(self, name: str, layer: str, start: float, end: float,
            parent: Optional[int], run_id: str) -> int:
        self.rows.append({"id": len(self.rows), "name": name,
                          "layer": layer, "start": start, "end": end,
                          "parent": parent, "run_id": run_id})
        return len(self.rows) - 1

    def with_self_time(self) -> List[Dict[str, Any]]:
        """Rows plus ``self_s``: duration minus the part of the
        interval the direct children cover (their union: parallel
        fleet jobs under one campaign overlap)."""
        children: Dict[int, List[Dict[str, Any]]] = {}
        for row in self.rows:
            if row["parent"] is not None:
                children.setdefault(row["parent"], []).append(row)
        out = []
        for row in self.rows:
            covered, edge = 0.0, row["start"]
            for child in sorted(children.get(row["id"], ()),
                                key=lambda c: c["start"]):
                start = max(child["start"], edge)
                end = min(child["end"], row["end"])
                if end > start:
                    covered += end - start
                    edge = end
            out.append({**row, "self_s":
                        row["end"] - row["start"] - covered})
        return out


class Child:
    """One ``child.py`` process.  Use as a context manager: leaving the
    block always reaps the process."""

    def __init__(self, spec: Dict[str, Any], run_id: str,
                 spans: Optional[Spans] = None):
        self.run_id = run_id
        self.spans = spans
        self._buffer = b""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]]
                          if env.get("PYTHONPATH") else []))
        self.t_spawn = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)
        self.ready = self.event("ready")
        #: spawn -> ready to run, on the clock both processes share.
        self.setup_s = self.ready["t"] - self.t_spawn
        self.exit: Dict[str, Any] = {}
        #: phase name -> span ids, once the child's spans are laid
        #: down at close ("child" is the root).
        self.span_ids: Dict[str, List[int]] = {}

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.kill()

    # -- wire ----------------------------------------------------------
    def send(self, command: Dict[str, Any]) -> None:
        self.proc.stdin.write((json.dumps(command) + "\n").encode())
        self.proc.stdin.flush()

    def poll(self, timeout: float) -> Optional[Dict[str, Any]]:
        """The next event if one arrives within *timeout* seconds
        (0 = just look).  Doubles as the load generator's think-time
        sleep: it returns early when the child speaks."""
        deadline = time.monotonic() + timeout
        while b"\n" not in self._buffer:
            remaining = max(0.0, deadline - time.monotonic())
            readable, _, _ = select.select([self.proc.stdout], [], [],
                                           remaining)
            if not readable:
                return None
            chunk = os.read(self.proc.stdout.fileno(), 1 << 16)
            if not chunk:
                raise ChildError(f"{self.run_id}: child closed stdout "
                                 f"(exit {self.proc.poll()})")
            self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return json.loads(line)

    def event(self, kind: str) -> Dict[str, Any]:
        event = self.poll(EVENT_TIMEOUT)
        if event is None or event.get("event") != kind:
            self.kill()
            raise ChildError(f"{self.run_id}: wanted {kind!r}, "
                             f"got {event!r}")
        return event

    # -- lifecycle -----------------------------------------------------
    def close(self) -> Dict[str, Any]:
        """EOF on stdin: the child tears down, reports, exits."""
        self.proc.stdin.close()
        events = []
        try:
            while not events or events[-1].get("event") != "exit":
                event = self.poll(EVENT_TIMEOUT)
                if event is None:
                    raise ChildError(f"{self.run_id}: no exit event")
                events.append(event)
            self.proc.wait(timeout=EVENT_TIMEOUT)
        except (ChildError, subprocess.TimeoutExpired):
            self.kill()
            raise
        self.proc.stdout.close()
        self.exit = events[-1]
        self.exit["extra"] = events[:-1]
        self._record_spans(time.monotonic())
        return self.exit

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None and not pipe.closed:
                pipe.close()

    def phase_ms(self, name: str) -> float:
        """Total milliseconds of the child's phases called *name*."""
        return sum(end - start for phase, _, start, end
                   in self.exit["phases"] if phase == name) * 1e3

    def _record_spans(self, t_end: float) -> None:
        if self.spans is None:
            return
        root = self.spans.add("child", "rtmbench", self.t_spawn, t_end,
                              None, self.run_id)
        self.span_ids["child"] = [root]
        self.spans.add("spawn", "rtmbench", self.t_spawn,
                       self.ready["t_start"], root, self.run_id)
        for name, layer, start, end in self.exit["phases"]:
            self.span_ids.setdefault(name, []).append(self.spans.add(
                name, layer, start, end, root, self.run_id))
