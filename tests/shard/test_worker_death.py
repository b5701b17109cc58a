"""A shard worker that dies mid-run is reported, named and reaped.

The coordinator rides the fleet's supervised worker channel, so a dead
shard surfaces at once as the channel's EOF item — not after the
120 s response timeout — and the error says what the channel knows:
the exit code (read after the reap), the torn frames, the stderr tail.
"""

import signal
import threading
import time

import pytest

from repro.gpu.platform import GPUPlatformConfig
from repro.shard import ShardCoordinator, ShardWorkerError
from repro.workloads import StoreStorm

pytestmark = pytest.mark.slow


def test_sigkilled_shard_raises_a_named_error_and_all_are_reaped():
    # Big enough to still be in the barrier loop when the kill lands.
    coordinator = ShardCoordinator(
        GPUPlatformConfig.small(num_chiplets=2),
        StoreStorm(num_workgroups=64, stores_per_wavefront=192), 2)
    outcome = {}

    def run():
        try:
            outcome["result"] = coordinator.run()
        except ShardWorkerError as exc:
            outcome["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    try:
        deadline = time.monotonic() + 60.0
        while coordinator.shard_status()["windows"] < 3:
            assert thread.is_alive(), outcome
            assert time.monotonic() < deadline, "never reached a window"
            time.sleep(0.005)
        coordinator._channels[1].process.send_signal(signal.SIGKILL)
        killed = time.monotonic()
        thread.join(timeout=30.0)
        elapsed = time.monotonic() - killed
    finally:
        coordinator.close()
    assert not thread.is_alive()
    assert "error" in outcome, "the run outlived its shard: grow it"
    assert elapsed < 5.0
    message = str(outcome["error"])
    assert message.startswith("shard 1: ")
    assert "rc=-9" in message
    assert "torn_frames=" in message
    assert all(channel.process.poll() is not None
               for channel in coordinator._channels)
