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

``python tests/test_import_footprint.py`` prints the table: modules,
``repro.*`` modules and import milliseconds per entry.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def _python(code, *flags):
    """Run *code* in a fresh interpreter that can import ``repro``;
    returns ``(last stdout line parsed as JSON, stderr)``."""
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code], capture_output=True,
        text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), proc.stderr


def _is_repro(module):
    return module == "repro" or module.startswith("repro.")


# ----------------------------------------------------------------------
# What an entry point loads
# ----------------------------------------------------------------------
def loaded_by(entry, *flags):
    """``(modules the *entry* statement adds to sys.modules, stderr)``."""
    return _python(
        "import sys; before = set(sys.modules)\n"
        f"{entry}\n"
        "added = sorted(set(sys.modules) - before)\n"
        "import json; print(json.dumps(added))", *flags)


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


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_entry_point_loads_no_neighbours(entry):
    forbidden, budget = ENTRIES[entry]
    modules, _ = loaded_by(entry)
    offenders = [m for m in modules
                 if any(m == f or m.startswith(f + ".") for f in forbidden)]
    assert not offenders, f"`{entry}` loads {offenders}"
    count = sum(map(_is_repro, modules))
    assert count <= budget, (
        f"`{entry}` loads {count} repro.* modules, budget {budget}: "
        "a package __init__ or a worker grew an import it does not run")


def test_opening_the_front_door_adds_under_twenty_modules():
    monitor, _ = loaded_by("from repro.core import Monitor")
    serving, _ = loaded_by(SERVING)
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
    modules, _ = loaded_by("import repro.gpu, repro.workloads")
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


@pytest.mark.parametrize("way", sorted(_FIR_BY_NAME))
def test_running_fir_loads_fir_and_no_other_workload(way):
    modules, _ = loaded_by(_FIR_BY_NAME[way])
    workloads = _modules_of("workloads") - {"repro.workloads"}
    assert workloads & set(modules) == {"repro.workloads.fir",
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

_SHARD_WINDOW = """
import dataclasses, json, sys
from repro.shard import worker
from repro.workloads import workload_spec
from repro.gpu.platform import GPUPlatformConfig
from repro.workloads import StoreStorm
state = worker._WorkerState()
worker._handle_init(state, {
    "shard": 0, "num_shards": 2,
    "config": dataclasses.asdict(GPUPlatformConfig.small(num_chiplets=4)),
    "workload": workload_spec(StoreStorm())})
before = set(sys.modules)
worker._handle_window(state, {"horizon": state.runtime.next_time + 1e-6})
assert state.runtime.engine.event_count > 0
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
    added, _ = _python(TIMED_REGIONS[region])
    assert added == [], (
        f"{region}: first imported inside the timed region — import "
        "them where the process sets up")


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------
def _import_ms(stderr):
    """Milliseconds of top-level imports in an ``-X importtime`` log:
    the cumulative column of every line that is not nested in another."""
    total_us = 0
    for line in stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cumulative, name = line.split("|")
            if name.startswith(" ") and not name.startswith("  ") \
                    and cumulative.strip().isdigit():
                total_us += int(cumulative)
    return total_us / 1e3


if __name__ == "__main__":
    _, startup = loaded_by("pass", "-X", "importtime")
    print(f"{'entry':66s}{'modules':>8s}{'repro.*':>9s}{'import ms':>11s}")
    for entry in (*sorted(ENTRIES), "import repro.gpu, repro.workloads",
                  "import repro.gpu, repro.workloads; "
                  "from repro.core import Monitor",
                  "import repro.fleet.manager"):
        modules, log = loaded_by(entry, "-X", "importtime")
        print(f"{entry:66s}{len(modules):8d}"
              f"{sum(map(_is_repro, modules)):9d}"
              f"{_import_ms(log) - _import_ms(startup):11.1f}")
