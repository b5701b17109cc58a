"""Contract tests for the public API surface.

A downstream user imports from the package roots; these tests pin the
names that constitute the public contract so refactors cannot silently
drop them.
"""

import pytest


def test_core_exports_the_monitoring_stack():
    from repro import core

    for name in ("Monitor", "RTMServer", "RTMClient", "BufferAnalyzer",
                 "ValueMonitor", "ValueWatch",
                 "ProgressBar", "HangDetector", "ResourceMonitor",
                 "AlertManager", "AlertRule", "SeriesRecorder",
                 "Watchdog", "WatchdogConfig", "RTMConnectionError",
                 "HTTPServerThread", "BadRequest", "NotFound",
                 "Response", "EventStream"):
        assert hasattr(core, name), name
        assert name in core.__all__


def test_faults_exports_the_injection_stack():
    from repro import faults

    for name in ("FaultInjector", "FaultKind", "FaultSpec",
                 "FaultScenario", "Expectation", "CampaignRunner",
                 "CampaignResult", "LIBRARY", "cycles"):
        assert hasattr(faults, name), name
        assert name in faults.__all__


def test_akita_exports_the_framework():
    from repro import akita

    for name in ("Engine", "Simulation", "Component", "TickingComponent",
                 "Port", "Buffer", "DirectConnection", "Event",
                 "TickEvent", "CallbackEvent", "EventQueue", "Hookable"):
        assert hasattr(akita, name), name
        assert name in akita.__all__


def test_gpu_exports_the_simulator():
    from repro import gpu

    for name in ("GPUPlatform", "GPUPlatformConfig", "Driver",
                 "ComputeUnit", "ReorderBuffer", "AddressTranslator",
                 "L1VCache", "L2Cache", "WriteBuffer", "DRAMController",
                 "RDMAEngine", "ChipletSwitch", "KernelDescriptor",
                 "TickStepper"):
        assert hasattr(gpu, name), name
        assert name in gpu.__all__


def test_workloads_exports_the_suite():
    from repro import workloads

    assert set(workloads.SUITE) == {"aes", "bfs", "fir", "im2col",
                                    "kmeans", "matmul"}
    for name in ("Workload", "WorkloadRun", "StoreStorm", "WORKLOADS",
                 "make_workload", "build_platform"):
        assert hasattr(workloads, name), name
        assert name in workloads.__all__


def test_monitor_implements_the_twelve_functions():
    """The paper's Go API, one-for-one (§IV-B: 'requires only 12
    functions')."""
    from repro.core import Monitor

    twelve = (
        "register_engine", "register_component",
        "create_progress_bar", "update_progress_bar",
        "destroy_progress_bar",
        "start_server", "stop_server",
        "pause", "continue_", "now",
        "tick_component", "kick_start",
    )
    assert len(twelve) == 12
    for name in twelve:
        assert callable(getattr(Monitor, name)), name


def test_version_is_exposed():
    import repro

    assert repro.__version__


def test_client_mirrors_every_view_endpoint():
    from repro.core import RTMClient

    for method in ("overview", "resources", "components", "component",
                   "value", "buffers", "progress", "hang", "profile",
                   "watches", "topology", "throughput", "alerts",
                   "pause", "continue_", "kickstart", "tick", "throttle",
                   "watch", "unwatch", "add_alert", "remove_alert",
                   "profile_start", "profile_stop",
                   "faults", "inject_fault", "revoke_fault",
                   "watchdog", "watchdog_start", "watchdog_stop",
                   "fleet_status", "fleet_worker_get"):
        assert callable(getattr(RTMClient, method)), method


def test_fleet_exports_the_orchestration_stack():
    from repro import fleet

    for name in ("FleetGateway", "FleetManager", "Job", "JobQueue",
                 "JobSpec", "WorkerHandle"):
        assert hasattr(fleet, name), name
        assert name in fleet.__all__
