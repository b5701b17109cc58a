"""A process imports what it runs — two host-independent gates.

*What an entry point loads.*  Every subsystem ``__init__.py`` above the
core is a lazy table (:mod:`repro._lazy`), so ``python -m
repro.shard.worker`` loads the simulator and the shard plane, not the
coordinator, the fleet manager, the HTTP server and ``urllib``.  Each
entry below is imported in a fresh interpreter; modules it must never
load and the number of ``repro.*`` modules it may load are gated (at
PR 17: shard worker 80, fleet worker 75, ``Monitor`` 35; ``repro.cli``
67 before it became a registry at PR 23).  The front
door is gated too: a process that serves loads ``socketserver``, not
``http.server`` and the ``email``/``http.client``/``ssl`` stack under
it, and opening a server adds 13 modules to a monitored process (18
before the planes' routes left ``core/server.py``, 70 at PR 18); a
gateway loads the transport (``repro.core.http``), not the RTM routes.
A workload module loads when its name is first used, and only that one
(the shard worker loaded 56, the fleet worker 70, the coordinator 61 and
``repro.cli`` 49 while each loaded all seven).

*What a timed region loads: nothing.*  A lazy import that first
resolves inside ``platform.run()``, a request handler, a fleet job or a
shard window moves set-up cost into the measured run.  Each region
below runs in a fresh interpreter after the set-up its process really
does; ``sys.modules`` must be the same set before and after.

*How many interpreters a pool starts: one.*  A fleet or a sharded run
starts one zygote (``python -m repro.fleet.zygote <worker module>``),
which imports the worker's modules once — the same ``repro.*`` set as
the worker's own ``python -m`` entry — and forks every worker from it.
A 3-worker fleet and a 3-shard run each call ``subprocess.Popen`` once
(three times each before the zygote), and every worker's parent is the
zygote.

``PYTHONPATH=src python -m tests.counts`` prints the counts:
``modules@<entry>`` and ``repro_modules@<entry>`` per entry statement,
and ``interpreter_starts@<pool>`` per pool boot.
"""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.fleet import FleetManager, JobQueue
from repro.gpu.platform import GPUPlatformConfig
from repro.shard import ShardCoordinator
from repro.workloads import StoreStorm

SRC = Path(__file__).resolve().parent.parent / "src"


def _python(code):
    """Run *code* in a fresh interpreter that can import ``repro``;
    returns its last stdout line parsed as JSON."""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _is_repro(module):
    return module == "repro" or module.startswith("repro.")


# ----------------------------------------------------------------------
# What an entry point loads
# ----------------------------------------------------------------------
@functools.cache
def loaded_by(entry):
    """The modules the *entry* statement adds to ``sys.modules``."""
    return tuple(_python(
        "import sys; before = set(sys.modules)\n"
        f"{entry}\n"
        "added = sorted(set(sys.modules) - before)\n"
        "import json; print(json.dumps(added))"))


#: What ``http.server``, ``urllib.request`` and ``tempfile`` drag into a
#: process whose only use for them was to answer a request.
HTTP_STACK = ("http.server", "http.client", "email", "ssl", "html",
              "mimetypes", "shutil", "pathlib")

SERVING = "from repro.core import Monitor; Monitor().start_server()"

#: What ``python -m repro <anything> --help`` has loaded when it prints.
PARSING = "import repro.cli; repro.cli._build_parser()"
#: A command line is not a monitor, a client, a study or a database
#: until a handler runs.
_NOT_A_PARSER = ("repro.core.monitor", "repro.core.client",
                 "repro.studies.session", "repro.metrics.registry",
                 "sqlite3")

#: entry statement -> (module prefixes it must not load, repro.* budget)
ENTRIES = {
    "import repro.shard.worker": ((
        "repro.core", "repro.metrics", "repro.historian",
        "repro.fleet.manager", "repro.fleet.gateway",
        "repro.fleet.journal", "repro.fleet.queue",
        "http.server", "urllib.request", "sqlite3"), 49),
    "import repro.fleet.worker": ((
        "repro.fleet.manager", "repro.fleet.gateway",
        "repro.fleet.journal", "repro.core.client", "repro.core.export",
        "repro.historian", "repro.shard", "repro.studies",
        "urllib.request", "sqlite3", *HTTP_STACK), 63),
    # A zygote imports its worker module when it starts, not before.
    "import repro.fleet.zygote": ((
        "repro.core", "repro.gpu", "repro.workloads", "socketserver",
        "urllib.request", *HTTP_STACK), 4),
    "import repro.core.server": ((
        "repro.core.client", "urllib.request", *HTTP_STACK), 9),
    # The two gateways run the transport, not the RTM routes.
    "import repro.fleet.gateway": (("repro.core.server",), 12),
    "import repro.shard.coordinator": (("repro.core.server",), 54),
    "from repro.core import Monitor": ((
        "repro.core.server", "repro.core.client", "repro.core.export",
        "http.server", "urllib.request"), 31),
    SERVING: ((
        "repro.core.client", "urllib.request", *HTTP_STACK), 33),
    # The simulator (gpu + the workloads table) and the registry;
    # building the parser adds the five ``*/cli.py`` and their
    # packages' lazy tables.
    "import repro.cli": (_NOT_A_PARSER, 42),
    PARSING: (_NOT_A_PARSER, 52),
}


#: Entries counted beside :data:`ENTRIES`: the simulator alone, with a
#: monitor, and the fleet's manager side.
COUNTED_ENTRIES = ("import repro.gpu, repro.workloads",
                   "import repro.gpu, repro.workloads; "
                   "from repro.core import Monitor",
                   "import repro.fleet.manager")


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_entry_point_loads_no_neighbours(entry):
    forbidden, budget = ENTRIES[entry]
    modules = loaded_by(entry)
    offenders = [m for m in modules
                 if any(m == f or m.startswith(f + ".") for f in forbidden)]
    assert not offenders, f"`{entry}` loads {offenders}"
    count = measure()[f"repro_modules@{entry}"]
    assert count <= budget, (
        f"`{entry}` loads {count} repro.* modules, budget {budget}: "
        "a package __init__ or a worker grew an import it does not run")


def test_opening_the_front_door_adds_under_twenty_modules():
    monitor = loaded_by("from repro.core import Monitor")
    serving = loaded_by(SERVING)
    added = sorted(set(serving) - set(monitor))
    assert len(added) <= 20, added  # of every origin, stdlib included


def _modules_of(*layers):
    """The dotted names of every module under ``src/repro/<layer>``."""
    names = set()
    for layer in layers:
        for path in (SRC / "repro" / layer).rglob("*.py"):
            parts = path.relative_to(SRC).with_suffix("").parts
            names.add(".".join(
                parts[:-1] if parts[-1] == "__init__" else parts))
    return names


def test_a_bare_simulation_loads_akita_gpu_and_the_workloads_table():
    """akita + gpu + the workloads table: no workload module until one
    is named."""
    modules = loaded_by("import repro.gpu, repro.workloads")
    assert set(filter(_is_repro, modules)) == (
        {"repro", "repro._lazy", "repro.workloads"}
        | _modules_of("akita", "gpu"))


#: Each way a process comes to run ``fir``.
_FIR_BY_NAME = {
    "the table": "from repro.workloads import build_platform\n"
                 "build_platform('fir', params={'num_samples': 256})",
    "a fleet job": "import contextlib, io\n"
                   "from repro.fleet import worker\n"
                   "server = worker.RTMServer(worker.Monitor())\n"
                   "spec = worker.JobSpec('j', 'fir',\n"
                   "                      params={'num_samples': 256})\n"
                   "spec.validate()\n"
                   "with contextlib.redirect_stdout(io.StringIO()):\n"
                   "    assert worker._execute_job(\n"
                   "        spec, 0, server, worker.WorkerSettings())",
}


def _zygote(module):
    """Run ``python -m repro.fleet.zygote <module>`` in this interpreter
    up to its first wait for a fork request, which finds its owner gone:
    what is loaded afterwards is what every forked worker starts with."""
    return ("import os, runpy, socket\n"
            "ours, theirs = socket.socketpair(socket.AF_UNIX,\n"
            "                                 socket.SOCK_SEQPACKET)\n"
            "os.dup2(theirs.fileno(), 0); theirs.close(); ours.close()\n"
            f"sys.argv = ['zygote', {module!r}]\n"
            "try:\n"
            "    runpy.run_module('repro.fleet.zygote', run_name='__main__')\n"
            "except SystemExit as end:\n"
            "    assert end.code == 0, end.code\n")


@pytest.mark.parametrize("module, count", [("repro.fleet.worker", 63),
                                           ("repro.shard.worker", 49)])
def test_a_zygote_preloads_what_its_worker_entry_loads(module, count):
    preloaded = loaded_by(_zygote(module))
    entry = loaded_by(f"import {module}")
    assert set(filter(_is_repro, preloaded)) == \
        set(filter(_is_repro, entry))
    assert sum(map(_is_repro, entry)) == count


_FIR_BY_NAME["a job in a forked worker"] = (
    _zygote("repro.fleet.worker") + _FIR_BY_NAME["a fleet job"])


@pytest.mark.parametrize("way", sorted(_FIR_BY_NAME))
def test_running_fir_loads_fir_and_no_other_workload(way):
    modules = loaded_by(_FIR_BY_NAME[way])
    workloads = _modules_of("workloads") - {"repro.workloads"}
    assert workloads & set(modules) == {"repro.workloads.fir",
                                        "repro.workloads.base"}


def test_a_window_in_a_forked_shard_loads_only_its_workload():
    modules = loaded_by(_zygote("repro.shard.worker") + _SHARD_INIT
                        + _WINDOW)
    workloads = _modules_of("workloads") - {"repro.workloads"}
    assert workloads & set(modules) == {"repro.workloads.storestorm",
                                        "repro.workloads.base"}


# ----------------------------------------------------------------------
# What a timed region loads
# ----------------------------------------------------------------------
_PLATFORM = """
import json, sys
from repro.gpu import GPUPlatform, GPUPlatformConfig
from repro.workloads import FIR
platform = GPUPlatform(GPUPlatformConfig.small(num_chiplets=2))
FIR(num_samples=256).enqueue(platform.driver)
"""

_MONITOR = _PLATFORM + """
from repro.core import Monitor
monitor = Monitor(platform.simulation)
monitor.attach_driver(platform.driver)
"""

_RECORDING = """
monitor.ensure_sim_metrics().start()
monitor.ensure_tracer(backend="ring").start()
"""

_RUN = """
before = set(sys.modules)
assert platform.run()
print(json.dumps(sorted(set(sys.modules) - before)))
"""

# One dashboard cycle and one scraper cycle (rtmbench's two readers),
# answered while the engine is inside run(): the simulation thread asks
# from a callback event, over a bare socket so that the client side
# imports nothing either.
_SERVED = """
import socket
from repro.akita import CallbackEvent
port = int(monitor.start_server().rsplit(":", 1)[1])
# The first connect of a process loads the IDNA codec; this one's
# readers live in the process, so it is theirs to load at set-up.
socket.create_connection(("127.0.0.1", port), timeout=10).close()
component = platform.simulation.component_names[0]
answered = []

def get(path):
    with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
        s.sendall(f"GET {path} HTTP/1.0\\r\\n\\r\\n".encode())
        reply = b"".join(iter(lambda: s.recv(65536), b""))
    assert reply.split(b"\\r\\n", 1)[0].endswith(b"200 OK"), reply[:200]
    answered.append(path)

def reader_cycles(event):
    assert platform.simulation.run_state == "running"
    assert platform.engine.event_count > 0
    for path in ("/api/overview", "/api/progress", "/api/buffers?top=20",
                 f"/api/component?name={component}", "/metrics",
                 "/api/metrics?delta=1",
                 "/api/trace/query?kind=deliver&limit=100"):
        get(path)

platform.engine.schedule(CallbackEvent(2e-6, reader_cycles))
"""

_FLEET_JOB = """
import json, sys
from repro.fleet import worker
server = worker.RTMServer(worker.Monitor())
server.start()
spec = worker.JobSpec("job", "fir", params={"num_samples": 256})
spec.validate()  # as the worker does on receipt, loading the workload
before = set(sys.modules)
assert worker._execute_job(spec, 0, server, worker.WorkerSettings())
added = set(sys.modules) - before
server.stop()
print(json.dumps(sorted(added)))
"""

#: A shard's ``init`` as the coordinator sends it: the workload by name.
_SHARD_INIT = """
import dataclasses, json, sys
from repro.shard import worker
from repro.gpu.platform import GPUPlatformConfig
state = worker._WorkerState()
worker._handle_init(state, {
    "shard": 0, "num_shards": 2,
    "config": dataclasses.asdict(GPUPlatformConfig.small(num_chiplets=4)),
    "workload": {"name": "storestorm", "params": {}}})
"""

_WINDOW = """
worker._handle_window(state, {"horizon": state.runtime.next_time + 1e-6})
assert state.runtime.engine.event_count > 0
"""

_SHARD_WINDOW = _SHARD_INIT + """
before = set(sys.modules)
""" + _WINDOW + """
print(json.dumps(sorted(set(sys.modules) - before)))
"""

TIMED_REGIONS = {
    "bare run": _PLATFORM + _RUN,
    "run with registry and ring tracer": _MONITOR + _RECORDING + _RUN,
    "run with both reader cycles served": (
        _MONITOR + _RECORDING + _SERVED + _RUN
        + "assert len(answered) == 7, answered\n"),
    "default fleet job": _FLEET_JOB,
    "shard window": _SHARD_WINDOW,
}


@pytest.mark.parametrize("region", sorted(TIMED_REGIONS))
def test_timed_region_imports_nothing(region):
    added = _python(TIMED_REGIONS[region])
    assert added == [], (
        f"{region}: first imported inside the timed region — import "
        "them where the process sets up")


# ----------------------------------------------------------------------
# How many interpreters a pool starts
# ----------------------------------------------------------------------
def _parent_of(pid):
    """The parent pid field of ``/proc/<pid>/stat``."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    return int(stat.rpartition(")")[2].split()[1])


def _fleet_boot(size):
    manager = FleetManager(JobQueue(), num_workers=size)
    manager.start()
    try:
        assert manager.wait_ready(timeout=60)
        return manager._zygote.process.pid, [
            _parent_of(worker["pid"])
            for worker in manager.status()["workers"]]
    finally:
        manager.stop()


def _shard_boot(size):
    coordinator = ShardCoordinator(
        GPUPlatformConfig.small(num_chiplets=size),
        StoreStorm(num_workgroups=8, stores_per_wavefront=4), size)
    try:
        coordinator._spawn()  # spawn, init, shard-ready: the boot
        return coordinator._zygote.process.pid, [
            _parent_of(channel.process.pid)
            for channel in coordinator._channels]
    finally:
        coordinator.close()


POOLS = {"fleet": _fleet_boot, "sharded": _shard_boot}


@functools.cache
def interpreter_starts(pool, size=3):
    """``(subprocess.Popen calls, zygote pid, each worker's parent)``
    for one boot of *pool* with *size* workers or shards."""
    calls = []
    real = subprocess.Popen

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    subprocess.Popen = counting
    try:
        zygote, parents = POOLS[pool](size)
    finally:
        subprocess.Popen = real
    return len(calls), zygote, parents


@pytest.mark.parametrize("pool", sorted(POOLS))
def test_a_pool_boot_starts_one_interpreter(pool):
    starts = measure()[f"interpreter_starts@{pool}"]
    assert starts == 1, f"{pool}: {starts} interpreter starts for 3"
    _, zygote, parents = interpreter_starts(pool)
    assert parents == [zygote] * 3


# ----------------------------------------------------------------------
# The counts
# ----------------------------------------------------------------------
@functools.cache
def measure():
    """``modules@<entry>`` and ``repro_modules@<entry>`` for every
    entry, ``interpreter_starts@<pool>`` for a 3-worker boot of each
    pool."""
    counts = {}
    for entry in (*sorted(ENTRIES), *COUNTED_ENTRIES):
        modules = loaded_by(entry)
        counts[f"modules@{entry}"] = len(modules)
        counts[f"repro_modules@{entry}"] = sum(map(_is_repro, modules))
    for pool in sorted(POOLS):
        counts[f"interpreter_starts@{pool}"] = interpreter_starts(pool)[0]
    return counts
