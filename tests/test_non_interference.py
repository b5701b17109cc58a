"""Watching a simulation does not change what it computes.

The paper's Fig. 7 claims monitoring costs time and nothing else.  Here
that is a test: a kernel run with each monitoring plane attached in
turn — the monitor and its server, the metrics registry, the ring
tracer, the continuous profiler, a passive poller and an active client
clicking every component — ends in the same state as a bare run of the
same spec, as :func:`tests.digest.digest` reads it.  The two clients
read once with the run paused half-way and once at its end.  A run
saved to a checkpoint at a seeded event, restored and run to its end
computes the same.  The Fig. 7 harness
(``benchmarks/conftest.py::prepare_scenario``) builds every run.
"""

import functools
import random

import pytest

from benchmarks.conftest import prepare_scenario
from repro.akita import HookPos
from repro.checkpoint import load_checkpoint, save_checkpoint
from repro.core import RTMClient
from tests.akita.kernels import KERNELS
from tests.digest import digest

ORACLE_KERNELS = ("fir256", "im2col_batch1", "storestorm_small")
#: plane -> the Fig. 7 scenario it runs in.
PLANES = {"bare": "none", "monitor": "monitor", "registry": "monitor",
          "ring": "monitor", "profiler": "monitor", "passive": "passive",
          "active": "active"}


def _read(client, plane):
    """What a browser tab asks: the passive one refreshes time and
    progress; the active one also clicks every component."""
    client.overview()
    client.progress()
    if plane == "active":
        for name in client.components():
            client.component(name)
        client.buffers(top=20)


def _run(kernel, plane, pause_at=None):
    """``(digest, end time)`` of *kernel* run under *plane*."""
    ctx = prepare_scenario(KERNELS[kernel].make, PLANES[plane])
    platform, monitor = ctx.platform, ctx.monitor
    try:
        if plane == "registry":
            monitor.ensure_sim_metrics().start()
        elif plane == "ring":
            monitor.ensure_tracer().start()
        elif plane == "profiler":
            monitor.start_continuous_profiling()
        client = RTMClient(monitor.url) if ctx.poller else None
        platform.start()
        if client is not None:
            platform.engine.run_until(pause_at)
            _read(client, plane)
        assert platform.simulation.run()
        if client is not None:
            _read(client, plane)
        return digest(platform.simulation), platform.engine.now
    finally:
        ctx.teardown()


@functools.cache
def _bare(kernel):
    return _run(kernel, "bare")


@pytest.mark.parametrize("plane", list(PLANES))
@pytest.mark.parametrize("kernel", ORACLE_KERNELS)
def test_no_plane_changes_what_the_simulation_computes(kernel, plane):
    expected, end = _bare(kernel)
    assert _run(kernel, plane, pause_at=end / 2)[0] == expected


@pytest.mark.parametrize("kernel", ORACLE_KERNELS)
def test_a_restored_checkpoint_computes_what_the_bare_run_did(kernel,
                                                              tmp_path):
    expected, _ = _bare(kernel)
    ctx = prepare_scenario(KERNELS[kernel].make, "none")
    engine, path = ctx.platform.engine, str(tmp_path / "run.rtm")
    boundary = random.Random(kernel).randrange(100, 1000)

    def save(_):
        if engine.event_count == boundary:
            save_checkpoint(ctx.platform, path)

    engine.accept_hook(save, positions=(HookPos.AFTER_EVENT,))
    assert ctx.platform.run()
    restored, header = load_checkpoint(path, KERNELS[kernel].make())
    assert header["meta"]["event_count"] == boundary
    assert not restored.driver.all_done
    assert restored.run()
    assert digest(restored.simulation) == expected


def test_the_digest_sees_one_changed_field():
    ctx = prepare_scenario(KERNELS["fir256"].make, "none")
    assert ctx.platform.run()
    before = digest(ctx.platform.simulation)
    ctx.platform.chiplets[0].cus[0].num_instructions += 1
    assert digest(ctx.platform.simulation) != before
