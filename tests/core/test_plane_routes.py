"""A plane brings its own routes.

``core/server.py`` answers the paper's rows and names every plane by
path prefix in one string manifest; a plane's rows are registered, by
the same public ``register_routes`` any simulator may call, when the
plane is attached or at the first request under its prefix.  These
tests pin when that happens, and that it happens under load without
losing a request.
"""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.core import Monitor, RTMClient, RTMClientError
from repro.core.server import RTMServer, register_routes
from repro.gpu import GPUPlatform, GPUPlatformConfig

SRC = Path(__file__).resolve().parents[2] / "src"


def _monitor():
    platform = GPUPlatform(GPUPlatformConfig.small(num_chiplets=1))
    monitor = Monitor(platform.simulation)
    monitor.attach_driver(platform.driver)
    return monitor


@pytest.fixture()
def table_restored():
    """Registration is process-wide: give later tests the table back."""
    saved = RTMServer.rows, RTMServer.routes
    yield
    RTMServer.rows, RTMServer.routes = saved


def test_a_plane_resolves_at_its_attach_or_its_first_request():
    """In a fresh interpreter: serving imports no plane; attaching the
    tracer registers the trace rows before any request; the first
    request under ``/api/faults`` registers the faults rows."""
    script = """
import json, sys, urllib.request
from repro.core import Monitor
from repro.core.server import RTMServer
from repro.gpu import GPUPlatform, GPUPlatformConfig
platform = GPUPlatform(GPUPlatformConfig.small(num_chiplets=1))
monitor = Monitor(platform.simulation)
monitor.start_server()
served = lambda: sorted(p for _, p in RTMServer.routes)
before = served()
planes_loaded = [m for m in ("repro.trace", "repro.faults", "repro.profile",
                             "repro.checkpoint") if m in sys.modules]
monitor.ensure_tracer()
after_attach = served()
with urllib.request.urlopen(monitor.url + "/api/faults") as reply:
    faults = json.load(reply)
monitor.stop_server()
print(json.dumps([before, planes_loaded, after_attach, faults, served()]))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    before, planes_loaded, after_attach, faults, after_request = \
        json.loads(proc.stdout.splitlines()[-1])
    assert planes_loaded == []
    assert "/api/trace/query" not in before and "/api/faults" not in before
    assert "/api/trace/query" in after_attach
    assert "/api/faults" not in after_attach
    assert faults == {"armed": False, "faults": [], "stats": {}}
    assert "/api/faults" in after_request


def test_rows_registered_while_a_client_hammers_lose_no_request(
        table_restored):
    server = RTMServer(_monitor())
    server.start()
    answered, failed = [], []
    stop = threading.Event()

    def hammer():
        with RTMClient(server.url, max_retries=0) as client:
            while not stop.is_set():
                try:
                    answered.append(client.overview()["event_count"])
                except (RTMClientError, OSError) as exc:
                    failed.append(str(exc))

    thread = threading.Thread(target=hammer)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    thread.start()
    try:
        generation = 0
        while len(answered) < 300 and thread.is_alive():
            generation += 1
            register_routes([(
                "GET", "/api/generation",
                lambda server, params, n=generation: {"generation": n},
                "which registration answers")])
    finally:
        stop.set()
        thread.join(timeout=30)
        sys.setswitchinterval(switch)
    try:
        with RTMClient(server.url) as client:
            latest = client._get("/api/generation")["generation"]
    finally:
        server.stop()
        server.monitor.stop_server()
    assert not thread.is_alive()
    assert not failed, failed[:3]
    assert len(answered) >= 300
    assert latest == generation > 1
