"""Shard worker process: forked by the coordinator's zygote, or run as
``python -m repro.shard.worker``.

Speaks the fleet control framing (bare JSON command lines on stdin,
``@fleet``-prefixed event lines on stdout — see
:mod:`repro.fleet.protocol`) with the :class:`ShardCoordinator`:

======================  =================================================
manager → worker        worker → manager
======================  =================================================
``init``                ``shard-ready`` (url, next event time)
``inject``              —
``window``              ``shard-outbox``* then ``window-done``
``stop``                ``shard-stopped`` (final counters + exposition)
``shutdown``            —
======================  =================================================

The outbox is split into bounded batches before framing
(:func:`split_batches`) so a hot window can never trip the decoder's
line cap and silently lose boundary messages.

A shard ends on its coordinator's ``stop``/``shutdown``, stdin EOF or
the reap's SIGKILL; a SIGTERM/SIGINT (a Ctrl-C to the process group) is
only recorded, and the coordinator's abort stops the shards.

Monitoring is opt-in per the ``init`` flags: ``metrics`` attaches a
:class:`Monitor` with simulation instrumentation (counter families in
the final exposition), ``monitor`` additionally serves the per-shard
AkitaRTM dashboard the coordinator's gateway federates.  Both default
off so benchmark comparisons against an uninstrumented monolithic run
stay fair.
"""

from __future__ import annotations

import sys
from typing import Any, Dict, List, Optional

from ..akita.threads import SignalGuard
from ..fleet.protocol import decode_command, emit, split_batches
from ..gpu.platform import GPUPlatformConfig
from ..workloads import resolve_workload
from .runtime import ShardRuntime


class _WorkerState:
    def __init__(self) -> None:
        self.runtime: Optional[ShardRuntime] = None
        self.monitor = None
        self.shard = -1


def _handle_init(state: _WorkerState, cmd: Dict[str, Any]) -> None:
    config = GPUPlatformConfig(**cmd["config"])
    workload = resolve_workload(cmd["workload"])
    state.shard = cmd["shard"]
    state.runtime = ShardRuntime(config, workload, cmd["shard"],
                                 cmd["num_shards"])
    url = None
    if cmd.get("metrics") or cmd.get("monitor"):
        from ..core import Monitor
        # Constructed after pruning: the monitor sees (and instruments)
        # only the components this shard owns.
        state.monitor = Monitor(state.runtime.simulation)
        state.monitor.attach_driver(state.runtime.platform.driver)
        if cmd.get("metrics"):
            state.monitor.ensure_sim_metrics().start()
        if cmd.get("monitor"):
            url = state.monitor.start_server(port=cmd.get("port", 0))
            state.monitor.start_sampler()
    emit({"event": "shard-ready", "shard": state.shard, "url": url,
          "next_time": state.runtime.next_time})


def _handle_window(state: _WorkerState, cmd: Dict[str, Any]) -> None:
    runtime = state.runtime
    runtime.run_window(cmd["horizon"], cmd.get("chunk_seconds"))
    for batch in split_batches(runtime.drain_outbox()):
        emit({"event": "shard-outbox", "shard": state.shard,
              "msgs": batch})
    emit({"event": "window-done", "shard": state.shard,
          "next_time": runtime.next_time, "done": runtime.done,
          "progress": runtime.progress()})


def _handle_stop(state: _WorkerState, cmd: Dict[str, Any]) -> None:
    runtime = state.runtime
    runtime.stop(bool(cmd.get("completed")))
    metrics_text = None
    if state.monitor is not None:
        from ..metrics import expose
        metrics_text = expose(state.monitor.metrics)
    payload = {"event": "shard-stopped", "shard": state.shard,
               "sim_time": runtime.engine.last_event_time,
               "events": runtime.engine.event_count,
               "metrics_text": metrics_text}
    payload.update(runtime.counters())
    emit(payload)
    if state.monitor is not None:
        state.monitor.stop_server()


def main(argv: List[str]) -> int:
    """Command loop (*argv* is empty); returns the exit code."""
    state = _WorkerState()
    with SignalGuard():  # the coordinator stops its shards
        for line in sys.stdin:
            cmd = decode_command(line)
            if cmd is None:
                continue
            op = cmd.get("cmd")
            try:
                if op == "init":
                    _handle_init(state, cmd)
                elif op == "inject":
                    state.runtime.inject(cmd["msgs"])
                elif op == "window":
                    _handle_window(state, cmd)
                elif op == "stop":
                    _handle_stop(state, cmd)
                    return 0
                elif op == "shutdown":
                    return 0
            except Exception as exc:  # noqa: BLE001 - reported, not fatal
                emit({"event": "shard-error", "shard": state.shard,
                      "op": op, "error": f"{type(exc).__name__}: {exc}"})
                return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    sys.exit(main(sys.argv[1:]))
