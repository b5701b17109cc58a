"""The five-part study session protocol (paper §VI-A).

1. Demonstration of AkitaRTM on the im2col benchmark.
2. A simple FIR simulation the participant explores freely.
3. A problematic im2col simulation (multiple bottlenecks); the
   participant tries to identify the issues unaided.
4. A semi-structured interview (here: theme tagging over the recorded
   behaviour, mirroring the paper's open-coding step).
5. The post-study survey.

Every part runs against a *live* simulation monitored by a *real*
AkitaRTM server — participants are scripted, the tool is not.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core import Monitor
from ..core.client import RTMClient
from ..gpu import GPUPlatform, GPUPlatformConfig
from ..workloads import FIR, Im2Col
from .participants import PARTICIPANTS, Findings, ParticipantAgent, Profile
from .survey import PAPER_FIGURE6, SurveyTable, respond

#: Behaviour-derived themes (paper §VI-B's open-coding results).
THEMES = (
    "companion",
    "different perspective",
    "learning tool",
    "needs guidance for new users",
)


def problem_platform_config() -> GPUPlatformConfig:
    """The 'problematic im2col' hardware.

    The paper's part-3 simulation was deliberately problematic
    ("multiple bottlenecks and performance issues were added"): here the
    L1s are starved (tiny cache + TLB, so the gathers miss) and the
    inter-chiplet network is slow, producing the expected cascade —
    ROB top ports pinned, L1s at MSHR capacity, transactions piling in
    the RDMA engines.
    """
    # CU supply (4 resident wavefronts x 64 outstanding) well exceeds
    # the ROB capacity (128): the top port stays pinned at 8/8 while
    # the ROB's own transaction count fluctuates between ~68 and 128
    # with retirement bursts — the exact pair of signatures in the
    # paper's Figure 5(c)/(d), whose reported range is 70-130.
    # The TLB covers the workload footprint and the translation
    # pipeline is shallow: in this case study the translator must NOT
    # be a bottleneck (Figure 5(d) shows it spiking and draining); the
    # pain is engineered into the miss stream and the network instead.
    return GPUPlatformConfig.small(
        num_chiplets=4, sas_per_gpu=2, cus_per_sa=2,
        max_outstanding_per_wf=64, rob_capacity=128,
        at_tlb_capacity=2048, at_max_inflight=8,
        net_msgs_per_cycle=1, net_link_latency_cycles=50)


def problem_workload() -> Im2Col:
    """im2col with the paper's per-image shape, scaled batch.

    The batch is large enough that the congested phase comfortably
    outlasts a participant's diagnostic walk (sessions abort the
    simulation when the participant is done, so a bigger batch does not
    lengthen the study)."""
    return Im2Col(image_width=24, image_height=24, channels=6,
                  batch=192, wavefronts_per_wg=4, images_per_wg=4,
                  cols_per_wavefront=32)


#: Event-rate cap of the part-3 simulation.  The congestion the study
#: is built around is an opening phase: the RDMA engines hold more than
#: 50 in-flight transactions for roughly the first 130k events, then
#: hover around 40-60.  A person takes minutes over the diagnostic
#: walk; the emulated participant takes ~1.5 s, and a simulator running
#: flat out is 100k-150k events in by then — past the phase, the more so
#: the faster the simulator gets.  Slowing simulated time (the paper's
#: own §V-C device) keeps the walk inside the phase it was designed to
#: observe, on any host and at any simulator speed.
PROBLEM_EVENTS_PER_SECOND = 20_000


class _LiveSim:
    """A monitored simulation running in a background thread."""

    def __init__(self, config: GPUPlatformConfig, workload,
                 events_per_second: float = 0.0):
        self.platform = GPUPlatform(config)
        self.platform.engine.set_throttle(events_per_second)
        self.monitor = Monitor.for_platform(self.platform)
        workload.enqueue(self.platform.driver)
        self.url = self.monitor.start_server()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> RTMClient:
        self._thread = threading.Thread(
            target=lambda: self.platform.run(hang_wait=10.0), daemon=True)
        self._thread.start()
        return RTMClient(self.url)

    def warm_up(self, timeout: float = 60.0) -> None:
        """Wait until the kernel is running and backpressure developed
        (some buffer pinned at capacity) before the participant looks.

        The enqueued H2D copy runs first; inspecting during the copy
        would show an idle memory hierarchy.
        """
        deadline = time.monotonic() + timeout
        analyzer = self.monitor.analyzer
        driver = self.platform.driver
        while (not self.platform.simulation.done
               and time.monotonic() < deadline):
            kernel_running = any(k.ongoing > 0 for k in driver.kernels)
            pinned = any(row.percent >= 1.0
                         for row in analyzer.snapshot(top=5))
            if kernel_running and pinned:
                return
            time.sleep(0.02)

    def stop(self) -> None:
        self.platform.simulation.abort()
        if self._thread is not None:
            self._thread.join(timeout=30.0)
        self.monitor.stop_server()


@dataclass
class SessionResult:
    """Everything recorded about one participant's session."""

    profile: Profile
    warmup: Findings
    findings: Findings
    responses: List[int]
    themes: List[str] = field(default_factory=list)

    @property
    def success(self) -> bool:
        return self.findings.success


@dataclass
class StudyResult:
    """The aggregated study (paper §VI-B/C)."""

    sessions: List[SessionResult]
    survey: SurveyTable

    @property
    def successful_participants(self) -> List[str]:
        return [s.profile.code for s in self.sessions if s.success]

    @property
    def feature_usage(self) -> Dict[str, int]:
        usage: Dict[str, int] = {}
        for s in self.sessions:
            for source in (s.warmup, s.findings):
                for feature, count in source.feature_usage.items():
                    usage[feature] = usage.get(feature, 0) + count
        return usage

    @property
    def most_used_feature(self) -> str:
        # Per the paper: bottleneck analyzer; compare part-3 usage only.
        usage: Dict[str, int] = {}
        for s in self.sessions:
            for feature, count in s.findings.feature_usage.items():
                usage[feature] = usage.get(feature, 0) + count
        return max(usage, key=lambda f: usage[f])

    @property
    def least_used_feature(self) -> str:
        usage = self.feature_usage
        return min(usage, key=lambda f: usage[f])

    def matches_paper_figure6(self) -> bool:
        return self.survey.matches(PAPER_FIGURE6)

    def format_report(self) -> str:
        """A human-readable study report (sessions, themes, survey)."""
        lines = ["# User study report", ""]
        lines.append("## Sessions")
        for s in self.sessions:
            profile = s.profile
            lines.append(
                f"* **{profile.code}** ({profile.level}, "
                f"{'prior' if profile.prior_experience else 'no prior'}"
                f" experience) — "
                f"{'SUCCESS' if s.success else 'did not complete'}"
                f" — bottlenecks: "
                f"{', '.join(sorted(s.findings.bottlenecks)) or 'none'}")
            for observation in s.findings.observations:
                lines.append(f"    * {observation}")
            if s.themes:
                lines.append(f"    * themes: {', '.join(s.themes)}")
        lines.append("")
        lines.append("## Feature usage (all parts)")
        for feature, count in sorted(self.feature_usage.items(),
                                     key=lambda kv: -kv[1]):
            lines.append(f"* {feature}: {count}")
        lines.append("")
        lines.append("## Survey")
        lines.append("```")
        lines.append(self.survey.format())
        lines.append("```")
        lines.append("")
        lines.append(f"Matches the paper's Figure 6: "
                     f"{self.matches_paper_figure6()}")
        return "\n".join(lines)


def _derive_themes(result: SessionResult) -> List[str]:
    """Open-coding emulation: behaviour → themes (paper §VI-B)."""
    themes = []
    if result.findings.feature_usage.get("component_detail", 0) > 0:
        themes.append("companion")          # fluid unaided navigation
    if result.success:
        themes.append("different perspective")  # real-time bottleneck id
    if (result.profile.level == "undergrad"
            and not result.success):
        themes.append("learning tool")      # PT1/PT6's learning outcome
    if not result.profile.prior_experience:
        themes.append("needs guidance for new users")
    return themes


def run_session(profile: Profile,
                think_time: float = 0.01) -> SessionResult:
    """Run one participant through parts 2–5.

    (Part 1, the demonstration, is the same simulation as part 3 driven
    by the experimenter; it exercises no additional tool surface, so the
    harness folds it into part 3's setup.)
    """
    # Part 2: FIR warm-up.
    fir_sim = _LiveSim(GPUPlatformConfig.small(num_chiplets=1),
                       FIR(num_samples=8192))
    client = fir_sim.start()
    agent = ParticipantAgent(profile, client, think_time)
    warmup = agent.explore()
    fir_sim.stop()

    # Part 3: problematic im2col.
    problem = _LiveSim(problem_platform_config(), problem_workload(),
                       events_per_second=PROBLEM_EVENTS_PER_SECOND)
    client = problem.start()
    problem.warm_up()
    agent = ParticipantAgent(profile, client, think_time)
    findings = agent.find_bottlenecks()
    agent.maybe_profile(findings)
    problem.stop()

    # Part 5: survey (part 4's themes are derived below).
    responses = respond(profile, findings)
    result = SessionResult(profile, warmup, findings, responses)
    result.themes = _derive_themes(result)
    return result


def run_study(participants: Optional[List[Profile]] = None,
              think_time: float = 0.01) -> StudyResult:
    """Run the full six-participant study and aggregate Figure 6."""
    sessions = [run_session(p, think_time)
                for p in (participants or PARTICIPANTS)]
    survey = SurveyTable.from_responses([s.responses for s in sessions])
    return StudyResult(sessions, survey)
