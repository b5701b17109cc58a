"""The engine handles the same events in the same order, release after
release.

``data/event_order_golden.json`` holds one SHA-256 per workload over the
``(time, event class, handler)`` sequence of a whole run, generated
before the hot path of ``repro.akita`` was flattened.  Anything that
reorders same-tick events, drops a spurious wake-up or adds one — a
changed tie-break, a tick scheduled a cycle early, a wake-up skipped —
changes a digest here within seconds, instead of surfacing only as a
different total in a benchmark's determinism check.

The same digests must come out whichever door drives the loop:
``run()`` to the end, or ``run_window()`` over successive horizons a
few cycles wide (the sharded mode's driver, which clamps the clock
between windows).

To regenerate after an *intended* change of event order::

    PYTHONPATH=src python tests/akita/test_event_order_golden.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.akita import HookPos
from repro.gpu import GPUPlatform, GPUPlatformConfig
from tests.akita.kernels import GOLDEN_KERNELS, KERNELS

GOLDEN = Path(__file__).parent / "data" / "event_order_golden.json"


def _run_in_windows(platform, cycles=3.5):
    """Drive the engine the way a shard does: one ``run_window()`` per
    horizon, each *cycles* past the earliest pending event (not a whole
    number, so horizons fall on and between cycle boundaries)."""
    engine = platform.engine
    platform.start()
    while engine.next_event_time is not None:
        engine.run_window(engine.next_event_time + cycles * 1e-9)
    engine.finish_windows()
    return platform.simulation.done


def event_order(make_workload, drive=GPUPlatform.run):
    """``{"events": n, "sha256": digest}`` of one run on the small
    two-chiplet platform."""
    platform = GPUPlatform(GPUPlatformConfig.small(num_chiplets=2))
    make_workload().enqueue(platform.driver)
    digest = hashlib.sha256()
    count = 0

    def record(ctx):
        nonlocal count
        event = ctx.item
        handler = event.handler
        name = getattr(handler, "name", type(handler).__name__)
        digest.update(
            f"{ctx.now!r} {type(event).__name__} {name}\n".encode())
        count += 1

    platform.engine.accept_hook(record, positions=(HookPos.BEFORE_EVENT,))
    assert drive(platform)
    assert count == platform.engine.event_count
    return {"events": count, "sha256": digest.hexdigest()}


def measure():
    """``events@<kernel>``: the event count the golden file pins."""
    return {f"events@{name}": run["events"]
            for name, run in json.loads(GOLDEN.read_text()).items()}


@pytest.mark.parametrize("workload", GOLDEN_KERNELS)
def test_event_order_matches_golden(workload):
    golden = json.loads(GOLDEN.read_text())
    assert event_order(KERNELS[workload].make) == golden[workload]


@pytest.mark.parametrize("workload", GOLDEN_KERNELS)
def test_event_order_is_the_same_through_run_window(workload):
    golden = json.loads(GOLDEN.read_text())
    assert event_order(KERNELS[workload].make, _run_in_windows) \
        == golden[workload]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {name: event_order(KERNELS[name].make) for name in GOLDEN_KERNELS},
        indent=2) + "\n")
    print(GOLDEN.read_text())
