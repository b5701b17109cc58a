"""``ShardCoordinator.abort()`` ends a sharded run at the next barrier.

The abort is what a signal guard calls (``repro run --shards N`` under
Ctrl-C/SIGTERM): the run ends the way a hung one does — not completed,
every shard stopped and its counters collected, every worker reaped.
"""

import threading
import time

import pytest

from repro.gpu.platform import GPUPlatformConfig
from repro.shard import ShardCoordinator
from repro.workloads import StoreStorm

pytestmark = pytest.mark.slow


def test_abort_from_another_thread_stops_the_run_and_reaps_every_shard():
    # Big enough to still be in the barrier loop when the abort lands.
    coordinator = ShardCoordinator(
        GPUPlatformConfig.small(num_chiplets=2),
        StoreStorm(num_workgroups=64, stores_per_wavefront=192), 2)

    def abort_mid_run():
        deadline = time.monotonic() + 60.0
        while coordinator.shard_status()["windows"] < 3 \
                and time.monotonic() < deadline:
            time.sleep(0.005)
        coordinator.abort()

    threading.Thread(target=abort_mid_run, daemon=True).start()
    try:
        result = coordinator.run()
    finally:
        coordinator.close()
    assert result.completed is False, "the run ended before the abort"
    assert result.windows > 0
    assert result.events > 0
    assert all(channel.process.poll() is not None
               for channel in coordinator._channels)
