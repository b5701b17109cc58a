"""One supervised worker process and its framed control channel.

:class:`WorkerChannel` is the single worker-process mechanism under
``repro.fleet`` and ``repro.shard``: fork a worker from its pool's
:class:`Zygote`, write commands down its stdin, decode the
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

**One interpreter start per pool** (POSIX).  The owner starts one
:class:`Zygote`, which imports the worker module once
(:mod:`repro.fleet.zygote`), and every worker is a fork of it.
``channel.process`` is the part of :class:`subprocess.Popen` the owners
use; the zygote reaps, reports and signals.  If the zygote dies, a
worker it can no longer fork or watch ends with ``returncode`` ``None``
and a stderr tail that names the zygote, its exit code and its stderr.
"""

from __future__ import annotations

import collections
import contextlib
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from .protocol import FrameDecoder, encode_command

__all__ = ["WorkerChannel"]

#: stderr lines kept for post-mortems and failure messages.
_STDERR_TAIL_LINES = 40


def _daemon(name: str, target) -> threading.Thread:
    thread = threading.Thread(target=target, daemon=True, name=name)
    thread.start()
    return thread


class _ForkedProcess:
    """What the owners use of :class:`subprocess.Popen`, for a worker a
    zygote forked; every method stays safe after the end."""

    def __init__(self, zygote: "Zygote", tail):
        self.pid = self.returncode = None
        self._zygote, self._tail = zygote, tail
        self._ended = threading.Event()

    def _end(self, code, note=()) -> None:
        if not self._ended.is_set():
            self.returncode = code
            self._tail.extend(note)
            self._ended.set()

    def poll(self):
        return self.returncode

    def wait(self, timeout=None):
        if not self._ended.wait(timeout):
            raise subprocess.TimeoutExpired(f"pid {self.pid}", timeout)
        return self.returncode

    def send_signal(self, signum: int) -> None:
        if not self._ended.is_set():
            self._zygote._send({"kill": self.pid, "signal": int(signum)})

    def terminate(self) -> None:
        self.send_signal(signal.SIGTERM)

    def kill(self) -> None:
        self.send_signal(signal.SIGKILL)


class Zygote:
    """A pool's only interpreter start (see :mod:`repro.fleet.zygote`)."""

    def __init__(self, module: str):
        self.module = module
        self._socket, theirs = socket.socketpair(
            socket.AF_UNIX, socket.SOCK_SEQPACKET)
        # It must import ``repro`` even from a source checkout.  Its own
        # session: a terminal's Ctrl-C or a group SIGTERM reaches the
        # owner, which stops the pool; never the zygote or its workers.
        path = os.pathsep.join(filter(None, (
            str(Path(__file__).resolve().parents[2]),
            os.environ.get("PYTHONPATH"))))
        with theirs:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.fleet.zygote", module],
                stdin=theirs, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, start_new_session=True,
                env={**os.environ, "PYTHONPATH": path})
        self._fork_lock = threading.Lock()
        self._answered = threading.Event()
        self._forking: Optional[_ForkedProcess] = None
        self._children: Dict[int, _ForkedProcess] = {}  # until reaped
        self.death: List[str] = []  # why the zygote is gone, once it is
        self._reader = _daemon(f"rtm-channel-zygote-{module}", self._read)

    def _send(self, payload: Dict[str, Any], fds=()) -> bool:
        try:
            socket.send_fds(self._socket, [json.dumps(payload).encode()],
                            fds)
        except OSError:  # the zygote is gone
            return False
        return True

    def _fork(self, args: List[str], fds, tail) -> _ForkedProcess:
        """A worker on stdio *fds*, its post-mortem lines in *tail*."""
        with self._fork_lock:
            self._forking = process = _ForkedProcess(self, tail)
            self._answered.clear()
            if self._send({"fork": list(args)}, fds):
                self._answered.wait()
            else:
                self._reader.join()
                process._end(None, self.death)
        return process

    def _read(self) -> None:
        while True:
            try:
                data = self._socket.recv(1 << 16)
            except OSError:
                data = b""
            if not data:
                break
            reply = json.loads(data)
            if "exited" in reply:
                self._children.pop(reply["exited"])._end(reply["code"])
            else:  # registered before its exit report can arrive
                self._forking.pid = reply["forked"]
                self._children[self._forking.pid] = self._forking
                self._answered.set()
        code = self.process.wait()
        err = self.process.stderr.read().decode("utf-8", "replace")
        self.process.stderr.close()
        self.death.append(" | ".join([
            f"zygote of {self.module} (pid {self.process.pid}) "
            f"exited {code}", *err.splitlines()[-3:]]))
        for process in [*self._children.values(), self._forking]:
            if process is not None:
                process._end(None, self.death)
        self._answered.set()

    def close(self) -> None:
        """Stop the zygote and wait for it (after its workers: one still
        running is no longer watched)."""
        with contextlib.suppress(OSError):
            self._socket.shutdown(socket.SHUT_WR)
        self._reader.join(timeout=5.0)  # it waits for the zygote's exit
        if self._reader.is_alive():  # a zygote that will not go
            self.process.kill()
            self._reader.join()
        self._socket.close()


class WorkerChannel:
    """A worker forked by *zygote*, its pipes and its reader threads."""

    def __init__(self, zygote: Zygote, args: List[str], sink, name: str):
        self.name = name
        self.decoder = FrameDecoder()
        self.stderr_tail: collections.deque = collections.deque(
            maxlen=_STDERR_TAIL_LINES)
        self._sink = sink
        (stdin, to_stdin), (from_stdout, stdout), (from_stderr, stderr) = \
            os.pipe(), os.pipe(), os.pipe()
        self.process = zygote._fork(args, [stdin, stdout, stderr],
                                   self.stderr_tail)
        for fd in (stdin, stdout, stderr):
            os.close(fd)  # the worker's ends: its exit is stdout's EOF
        self._stdin = open(to_stdin, "wb")
        self._stdout = open(from_stdout, "rb")
        self._stderr = open(from_stderr, "rb")
        self._threads = [
            _daemon(f"rtm-channel-{name}-{stream}", target)
            for stream, target in (("stdout", self._read_events),
                                   ("stderr", self._read_stderr))]

    def _read_events(self) -> None:
        """Pump raw stdout chunks through the damage-tolerant frame
        decoder into the sink."""
        stream = self._stdout
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
        for raw in self._stderr:
            self.stderr_tail.append(
                raw.decode("utf-8", "replace").rstrip("\n"))
        self._stderr.close()

    def send(self, payload: Dict[str, Any]) -> bool:
        """Write one command; ``False`` if the pipe is gone (the child
        died — its EOF item is, or soon will be, on the sink)."""
        try:
            self._stdin.write(encode_command(payload))
            self._stdin.flush()
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
        otherwise; returns the exit code (negative: killed by signal;
        ``None``: the zygote died before it could say)."""
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
            self._stdin.close()
        except OSError:  # unflushed bytes for a child that is gone
            pass
