"""The fault-injection campaign runner.

A *campaign* executes :class:`~repro.faults.scenarios.FaultScenario`
objects against a workload and checks that AkitaRTM reaches the
expected verdict — hang flagged within a wall-time bound, the right
buffer fingered, or (for benign faults) the run still completing.  It
is how this repository proves the monitor's diagnostics against
*induced* failures instead of waiting for organic bugs.

The runner drives everything through the same surfaces a user would:
the :class:`~repro.core.monitor.Monitor` plugin API and (indirectly)
the :class:`~repro.core.watchdog.Watchdog`, which snapshots
diagnostics, retries the automated *Tick* button, and cleanly aborts
hung runs so a campaign can never wedge CI.
"""

from __future__ import annotations

import fnmatch
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Optional

from ..akita.threads import run_guarded
from ..core.monitor import Monitor
from ..core.watchdog import WatchdogConfig
from .scenarios import FaultScenario


@dataclass
class CampaignResult:
    """The outcome of one scenario run."""

    scenario: str
    passed: bool
    #: check name -> {"expected": ..., "observed": ..., "ok": bool}
    verdicts: Dict[str, Dict[str, Any]]
    elapsed_wall: float
    completed: bool
    final_state: str
    fault_stats: Dict[str, Any] = field(default_factory=dict)
    watchdog_report: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        return {**asdict(self), "elapsed_wall": round(self.elapsed_wall, 3)}

    def summary(self) -> str:
        """A terse human-readable verdict table."""
        lines = [f"[{'PASS' if self.passed else 'FAIL'}] "
                 f"{self.scenario} ({self.elapsed_wall:.1f}s wall, "
                 f"final state: {self.final_state})"]
        for check, verdict in self.verdicts.items():
            mark = "ok" if verdict["ok"] else "FAIL"
            lines.append(f"  {check:16s} {mark:4s} "
                         f"expected={verdict['expected']!r} "
                         f"observed={verdict['observed']!r}")
        return "\n".join(lines)


class CampaignRunner:
    """Runs scenarios against freshly-built platforms.

    Parameters
    ----------
    platform_factory:
        Zero-argument callable building a platform object exposing
        ``simulation``, ``driver`` and ``run(hang_wait=...)`` (a
        :class:`~repro.gpu.platform.GPUPlatform` fits).
    workload_factory:
        Zero-argument callable returning a workload with an
        ``enqueue(driver)`` method, or ``None`` for pre-loaded
        platforms.
    wall_timeout:
        Hard wall-clock bound per scenario; the runner aborts the
        simulation when it trips, so a campaign can never hang.
    stall_threshold:
        Passed through to the hang detector (small values make
        campaigns snappy; the default mirrors interactive use).
    watchdog_config:
        Supervision settings; by default the watchdog snapshots, tries
        bounded recovery, and aborts on failure.

    The watchdog is the one that notices a hang: a hang it cannot
    recover it aborts, which ends the run, and ``hang_within`` is judged
    from the time its report says it confirmed the hang.
    """

    def __init__(self, platform_factory: Callable[[], Any],
                 workload_factory: Optional[Callable[[], Any]] = None,
                 wall_timeout: float = 60.0,
                 stall_threshold: float = 2.0,
                 watchdog_config: Optional[WatchdogConfig] = None):
        self.platform_factory = platform_factory
        self.workload_factory = workload_factory
        self.wall_timeout = wall_timeout
        self.stall_threshold = stall_threshold
        self.watchdog_config = watchdog_config

    # ------------------------------------------------------------------
    def run(self, scenario: FaultScenario) -> CampaignResult:
        """Execute one scenario and evaluate its expectation."""
        platform = self.platform_factory()
        monitor = Monitor.for_platform(platform)
        monitor.hang.stall_threshold = self.stall_threshold

        injector = monitor.ensure_injector(seed=scenario.seed)
        scenario.arm(injector)

        if self.workload_factory is not None:
            self.workload_factory().enqueue(platform.driver)

        watchdog = monitor.enable_watchdog(
            **asdict(self.watchdog_config or WatchdogConfig()))

        start = time.monotonic()
        try:
            _, state = run_guarded(platform, self.wall_timeout,
                                   wall_timeout=self.wall_timeout)
        finally:
            monitor.stop_server()  # and every plane, the watchdog too

        elapsed = time.monotonic() - start
        confirmed = (watchdog.report or {}).get("confirmed_at")
        hang_detected_at = None if confirmed is None else confirmed - start
        return self._evaluate(scenario, monitor, injector, watchdog,
                              state == "completed",
                              platform.simulation.run_state,
                              hang_detected_at, elapsed)

    # ------------------------------------------------------------------
    def _evaluate(self, scenario, monitor, injector, watchdog,
                  completed: bool, final_state: str,
                  hang_detected_at: Optional[float],
                  elapsed: float) -> CampaignResult:
        expect = scenario.expect
        verdicts: Dict[str, Dict[str, Any]] = {}

        if expect.hang_within is not None:
            verdicts["hang_within"] = {
                "expected": f"<= {expect.hang_within:g}s",
                "observed": hang_detected_at,
                "ok": (hang_detected_at is not None
                       and hang_detected_at <= expect.hang_within),
            }
        if expect.completes is not None:
            verdicts["completes"] = {
                "expected": expect.completes,
                "observed": completed,
                "ok": completed == expect.completes,
            }
        if expect.buffer_pattern is not None:
            rows = monitor.analyzer.snapshot(sort="size")
            glob = expect.buffer_pattern.replace("[", "[[]")  # literal [
            matching = [row.name for row in rows
                        if fnmatch.fnmatchcase(row.name, glob)]
            verdicts["buffer_pattern"] = {
                "expected": expect.buffer_pattern,
                "observed": matching[:5],
                "ok": bool(matching),
            }

        return CampaignResult(
            scenario=scenario.name,
            passed=all(v["ok"] for v in verdicts.values()),
            verdicts=verdicts,
            elapsed_wall=elapsed,
            completed=completed,
            final_state=final_state,
            fault_stats=injector.stats(),
            watchdog_report=watchdog.report,
        )
