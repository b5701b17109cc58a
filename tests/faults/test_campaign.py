"""Campaign runner integration tests (small platform, fast workloads).

The full-size campaign lives in ``examples/fault_injection.py``; here a
scaled-down platform proves the verdict logic in a few seconds.
"""

import pytest

from repro.core.watchdog import WatchdogConfig
from repro.faults import CampaignRunner, slow_network, write_buffer_stall
from repro.gpu import GPUPlatform, GPUPlatformConfig
from repro.workloads import FIR


def _runner(**overrides):
    defaults = dict(
        platform_factory=lambda: GPUPlatform(
            GPUPlatformConfig.small(num_chiplets=2)),
        workload_factory=lambda: FIR(num_samples=2048),
        wall_timeout=30.0,
        stall_threshold=0.3,
        watchdog_config=WatchdogConfig(check_interval=0.1,
                                       max_tick_retries=1,
                                       retry_wait=0.1),
    )
    defaults.update(overrides)
    return CampaignRunner(**defaults)


def test_write_buffer_stall_campaign_passes():
    result = _runner().run(write_buffer_stall(hang_within=25.0))
    assert result.passed, result.summary()
    assert result.completed is False
    assert result.verdicts["hang_within"]["ok"]
    assert result.verdicts["buffer_pattern"]["ok"]
    # The post-mortem names the stalled write-buffer intake.
    assert result.watchdog_report is not None
    assert result.watchdog_report["verdict"] == "aborted"
    names = [b["buffer"]
             for b in result.watchdog_report["stuck_buffers"]]
    assert any("WriteBuffer" in n for n in names)
    assert result.fault_stats["applied_total"] > 0


def test_benign_fault_campaign_completes():
    result = _runner().run(slow_network(delay_cycles=20))
    assert result.passed, result.summary()
    assert result.completed is True
    assert result.final_state == "completed"
    assert result.watchdog_report is None


def test_result_serializes_and_summarizes():
    result = _runner().run(slow_network(delay_cycles=20))
    payload = result.to_dict()
    assert payload["scenario"] == "slow-network"
    assert payload["passed"] is True
    assert "completes" in payload["verdicts"]
    text = result.summary()
    assert "PASS" in text and "slow-network" in text


def test_wall_timeout_bounds_a_hung_campaign():
    # A stall the watchdog does not look at in time would hang for the
    # platform's own hang_wait without the runner's wall bound.
    runner = _runner(wall_timeout=6.0,
                     watchdog_config=WatchdogConfig(check_interval=600.0))
    result = runner.run(write_buffer_stall(hang_within=5.0))
    assert result.elapsed_wall < 30.0
    assert result.completed is False
    assert result.watchdog_report is None
    assert not result.verdicts["hang_within"]["ok"]


def test_hang_within_is_timed_from_the_watchdogs_confirmation():
    result = _runner().run(write_buffer_stall(hang_within=25.0))
    confirmed = result.verdicts["hang_within"]["observed"]
    assert 0 < confirmed < result.elapsed_wall
    assert result.watchdog_report["confirmed_at"] > 0
