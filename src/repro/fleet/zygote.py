"""A pool's one interpreter start: ``python -m repro.fleet.zygote <module>``.

Imports a worker module once, freezes it out of the collector's reach
(children then share those pages) and forks the pool's workers.  Stdin
is a ``SOCK_SEQPACKET`` socket to :class:`~repro.fleet.channel.Zygote`
carrying one JSON object per datagram: ``{"fork": args}`` with three
stdio fds (answered ``{"forked": pid}``) and ``{"kill": pid, "signal":
n}`` in, ``{"exited": pid, "code": c}`` out per reaped child.  Only an
unreaped child is signalled, so a reused pid is never hit.
"""

import gc
import json
import os
import select
import signal
import socket
import sys
import threading
import traceback
from importlib import import_module


def _run_child(sock, fds, module, args, wakeup):
    """The forked child: ``python -m <module> <args>`` on *fds*, ended
    by ``os._exit`` — it never returns into the zygote's loop."""
    code = 1
    try:
        for target, fd in enumerate(fds):
            os.dup2(fd, target)  # fd 0 was the socket: dup2 closes it
        sock.detach()
        for fd in (*fds, *wakeup):
            os.close(fd)
        signal.set_wakeup_fd(-1)
        signal.signal(signal.SIGCHLD, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.default_int_handler)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        sys.stdin = sys.__stdin__ = open(0, closefd=False)
        sys.stdout = sys.__stdout__ = open(1, "w", closefd=False)
        sys.stderr = sys.__stderr__ = open(
            2, "w", buffering=1, closefd=False, errors="backslashreplace")
        try:
            code = import_module(module).main(args)
        except SystemExit as exc:  # argparse's exit 2
            code = exc.code if isinstance(exc.code, int) else int(
                exc.code is not None)
        sys.stdout.flush()
        sys.stderr.flush()
    except BaseException:  # noqa: BLE001 - the child's last word
        traceback.print_exc()
    finally:
        os._exit(code)


def _serve(module):
    # The owner's Ctrl-C is the owner's, also while the import runs.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    import_module(module)
    gc.freeze()
    sock = socket.socket(fileno=0)
    wakeup = os.pipe()
    os.set_blocking(wakeup[1], False)
    signal.set_wakeup_fd(wakeup[1])
    signal.signal(signal.SIGCHLD, lambda signum, frame: None)
    children = set()
    while True:
        ready, _, _ = select.select([sock, wakeup[0]], [], [])
        if wakeup[0] in ready:
            os.read(wakeup[0], 4096)  # one byte per SIGCHLD
            while children:
                pid, status = os.waitpid(-1, os.WNOHANG)
                if not pid:
                    break
                children.discard(pid)
                code = os.waitstatus_to_exitcode(status)
                sock.send(json.dumps({"exited": pid, "code": code}).encode())
        if sock not in ready:
            continue
        data, fds, _, _ = socket.recv_fds(sock, 1 << 16, 3)
        if not data:
            return 0  # the owner closed its end
        request = json.loads(data)
        if "kill" in request:
            if request["kill"] in children:
                os.kill(request["kill"], request["signal"])
            continue
        if threading.active_count() != 1:
            raise RuntimeError("a fork would copy one of "
                               f"{threading.active_count()} threads")
        pid = os.fork()
        if pid == 0:
            _run_child(sock, fds, module, request["fork"], wakeup)
        children.add(pid)
        for fd in fds:
            os.close(fd)
        sock.send(json.dumps({"forked": pid}).encode())


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    sys.exit(_serve(sys.argv[1]))
