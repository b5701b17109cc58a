"""One supervised worker process and its framed control channel.

:class:`WorkerChannel` is the single worker-process mechanism under
``repro.fleet`` and ``repro.shard``: spawn ``python -m <module>`` with
an importable ``repro``, write commands down its stdin, decode the
``@fleet`` event frames coming up its stdout on a reader thread, keep
the last lines of its stderr, and shut it down / reap it.  What to *do*
with the events is the caller's policy and stays with the caller: every
decoded event is put on the caller's *sink* queue as ``(channel,
arrival_monotonic, event)``, followed by exactly one ``(channel,
arrival, None)`` when stdout reaches EOF.  The fleet manager hands all
its channels one scheduler queue; the shard coordinator gives each
shard its own and blocks on it at the barrier (the arrival stamp is
what lets it charge barrier skew to the shard that *finished* last,
not the one it happened to drain last).
"""

from __future__ import annotations

import collections
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List

from .protocol import FrameDecoder, encode_command

__all__ = ["WorkerChannel"]

#: stderr lines kept for post-mortems and failure messages.
_STDERR_TAIL_LINES = 40


def _child_env() -> Dict[str, str]:
    """The child must be able to ``import repro`` even when the parent
    runs from a source checkout that is not installed."""
    env = dict(os.environ)
    package_root = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH", "")
    if package_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (package_root + os.pathsep + existing
                             if existing else package_root)
    return env


class WorkerChannel:
    """A ``python -m module`` child, its pipes and its reader threads."""

    def __init__(self, module: str, args: List[str], sink, name: str):
        self.name = name
        self.decoder = FrameDecoder()
        self.stderr_tail: collections.deque = collections.deque(
            maxlen=_STDERR_TAIL_LINES)
        self._sink = sink
        self.process = subprocess.Popen(
            [sys.executable, "-m", module, *args],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, env=_child_env())
        self._threads = [
            threading.Thread(target=target, daemon=True,
                             name=f"rtm-channel-{name}-{stream}")
            for stream, target in (("stdout", self._read_events),
                                   ("stderr", self._read_stderr))]
        for thread in self._threads:
            thread.start()

    def _read_events(self) -> None:
        """Pump raw stdout chunks through the damage-tolerant frame
        decoder into the sink."""
        stream = self.process.stdout
        while True:
            chunk = stream.read1(65536)
            if not chunk:
                break
            for event in self.decoder.feed(chunk):
                self._sink.put((self, time.monotonic(), event))
        self.decoder.flush()
        stream.close()
        self._sink.put((self, time.monotonic(), None))

    def _read_stderr(self) -> None:
        for raw in self.process.stderr:
            self.stderr_tail.append(
                raw.decode("utf-8", "replace").rstrip("\n"))
        self.process.stderr.close()

    def send(self, payload: Dict[str, Any]) -> bool:
        """Write one command; ``False`` if the pipe is gone (the child
        died — its EOF item is, or soon will be, on the sink)."""
        try:
            self.process.stdin.write(encode_command(payload))
            self.process.stdin.flush()
        except (OSError, ValueError):  # broken pipe / closed stdin
            return False
        return True

    def shutdown(self) -> None:
        """Ask the child to exit: ``shutdown`` command, then a closed
        stdin (both worker loops also end on stdin EOF)."""
        self.send({"cmd": "shutdown"})
        self._close_stdin()

    def reap(self, grace: float) -> int:
        """Wait up to *grace* seconds for the child to exit, SIGKILL it
        otherwise; returns the exit code (negative: killed by signal)."""
        try:
            self.process.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        for thread in self._threads:
            thread.join(timeout=2.0)
        self._close_stdin()
        return self.process.returncode

    def _close_stdin(self) -> None:
        try:
            self.process.stdin.close()
        except OSError:  # unflushed bytes for a child that is gone
            pass
