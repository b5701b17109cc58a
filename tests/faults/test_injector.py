"""Unit tests for the fault-injection primitives."""

import pytest

from repro.faults import FaultInjector, FaultKind, FaultSpec
from repro.gpu import GPUPlatform, GPUPlatformConfig
from repro.workloads import FIR


@pytest.fixture
def platform():
    return GPUPlatform(GPUPlatformConfig.small(num_chiplets=2))


# ----------------------------------------------------------------------
# FaultSpec validation
# ----------------------------------------------------------------------
def test_spec_requires_target():
    with pytest.raises(ValueError, match="target"):
        FaultSpec(FaultKind.DROP, "")


def test_spec_rejects_bad_probability():
    with pytest.raises(ValueError, match="probability"):
        FaultSpec(FaultKind.DROP, "*", probability=1.5)


def test_spec_rejects_negative_delay():
    with pytest.raises(ValueError, match="delay"):
        FaultSpec(FaultKind.DELAY, "*", delay=-1.0)


def test_spec_rejects_inverted_window():
    with pytest.raises(ValueError, match="window"):
        FaultSpec(FaultKind.STALL, "*", start=2.0, end=1.0)


def test_spec_accepts_kind_as_string():
    spec = FaultSpec("stall", "*WriteBuffer*")
    assert spec.kind is FaultKind.STALL


def test_spec_window_and_matching():
    spec = FaultSpec(FaultKind.STALL, "GPU[0].*", start=1.0, end=2.0)
    assert not spec.active(0.5)
    assert spec.active(1.0)
    assert not spec.active(2.0)
    assert spec.matches("GPU[0].WriteBuffer[1]")
    assert not spec.matches("GPU[1].WriteBuffer[1]")


def test_spec_ids_are_unique(platform):
    """The injector that arms a spec numbers it, from 1 in each."""
    for _ in range(2):
        injector = FaultInjector(platform.simulation)
        a = injector.inject(FaultSpec(FaultKind.STALL, "*"))
        b = injector.inject(FaultSpec(FaultKind.STALL, "*"))
        assert (a.id, b.id) == (1, 2)


# ----------------------------------------------------------------------
# Zero overhead when idle
# ----------------------------------------------------------------------
def test_no_hooks_without_injector(platform):
    FIR(num_samples=256).enqueue(platform.driver)
    assert platform.run()
    assert not platform.simulation.engine._hooks
    for comp in platform.simulation.components:
        assert not comp._hooks, comp.name
    for conn in platform.simulation.connections:
        assert not conn._hooks


def test_hooks_attach_lazily_and_detach_on_revoke(platform):
    injector = FaultInjector(platform.simulation)
    assert not platform.simulation.engine._hooks

    stall = injector.inject(FaultSpec(FaultKind.STALL, "*WriteBuffer*"))
    assert platform.simulation.engine._hooks
    drop = injector.inject(FaultSpec(FaultKind.DROP, "*RDMA*"))
    assert all(c._hooks for c in platform.simulation.connections)

    assert injector.revoke(stall.id)
    assert not platform.simulation.engine._hooks
    assert injector.revoke(drop.id)
    assert all(not c._hooks for c in platform.simulation.connections)
    assert not injector.revoke(999)  # unknown id


def test_clear_disarms_everything(platform):
    injector = FaultInjector(platform.simulation)
    injector.inject(FaultSpec(FaultKind.STALL, "*WriteBuffer*"))
    injector.inject(FaultSpec(FaultKind.DROP, "*RDMA*"))
    injector.inject(FaultSpec(FaultKind.PIN_BUFFER, "*L2*TopPort.Buf"))
    injector.clear()
    assert injector.specs == []
    assert not platform.simulation.engine._hooks
    assert all(not c._hooks for c in platform.simulation.connections)
    assert injector.stats()["pinned_buffers"] == []


# ----------------------------------------------------------------------
# The fault kinds, end to end on a real platform
# ----------------------------------------------------------------------
def _run(platform, samples=2048):
    FIR(num_samples=samples).enqueue(platform.driver)
    return platform.run(hang_wait=0.0)


def test_stall_hangs_the_run(platform):
    injector = FaultInjector(platform.simulation)
    spec = injector.inject(FaultSpec(FaultKind.STALL, "*WriteBuffer*",
                                     start=5e-7))
    completed = _run(platform)
    assert not completed
    assert platform.simulation.run_state == "hung"
    assert spec.applied_count > 0


def test_stall_outside_window_is_harmless(platform):
    injector = FaultInjector(platform.simulation)
    # Window closed before the run starts doing anything interesting.
    spec = injector.inject(FaultSpec(FaultKind.STALL, "*WriteBuffer*",
                                     start=0.0, end=1e-12))
    assert _run(platform)
    assert spec.applied_count == 0


def test_kill_port_hangs_and_counts_drops(platform):
    injector = FaultInjector(platform.simulation)
    injector.inject(FaultSpec(FaultKind.KILL_PORT, "*RDMA*", start=1e-7))
    completed = _run(platform)
    assert not completed
    assert injector.stats()["messages_dropped"] > 0


def test_drop_probability_zero_never_bites(platform):
    injector = FaultInjector(platform.simulation)
    spec = injector.inject(FaultSpec(FaultKind.DROP, "*", probability=0.0))
    assert _run(platform)
    assert spec.applied_count == 0
    assert injector.stats()["messages_dropped"] == 0


def test_drop_is_deterministic_per_seed():
    counts = []
    for _ in range(2):
        platform = GPUPlatform(GPUPlatformConfig.small(num_chiplets=2))
        injector = FaultInjector(platform.simulation, seed=42)
        injector.inject(FaultSpec(FaultKind.DROP, "*RDMA*", start=1e-7,
                                  probability=0.05))
        _run(platform)
        counts.append(injector.stats()["messages_dropped"])
    assert counts[0] == counts[1]
    assert counts[0] > 0


def test_delay_slows_but_completes(platform):
    baseline = GPUPlatform(GPUPlatformConfig.small(num_chiplets=2))
    assert _run(baseline)
    t_baseline = baseline.simulation.engine.now

    injector = FaultInjector(platform.simulation)
    spec = injector.inject(FaultSpec(FaultKind.DELAY, "*Switch*",
                                     delay=5e-8))
    assert _run(platform)
    assert spec.applied_count > 0
    assert platform.simulation.engine.now > t_baseline


def test_pin_buffer_shows_full_and_blocks_senders(platform):
    injector = FaultInjector(platform.simulation)
    spec = injector.inject(FaultSpec(FaultKind.PIN_BUFFER,
                                     "*L2*TopPort.Buf"))
    assert spec.applied_count > 0
    chiplet = platform.chiplets[0]
    buf = chiplet.l2s[0].top_port.buf
    assert buf.pinned
    assert buf.fullness == 1.0
    assert buf.free_slots == 0
    completed = _run(platform)
    assert not completed

    injector.revoke(spec.id)
    assert not buf.pinned


def test_pin_buffer_unknown_pattern_raises(platform):
    injector = FaultInjector(platform.simulation)
    with pytest.raises(ValueError, match="no buffer matches"):
        injector.inject(FaultSpec(FaultKind.PIN_BUFFER, "*NoSuchBuffer*"))


def test_pin_window_releases_and_run_completes(platform):
    injector = FaultInjector(platform.simulation)
    injector.inject(FaultSpec(FaultKind.PIN_BUFFER, "*L2*TopPort.Buf",
                              start=0.0, end=2e-7))
    # While pinned the senders stall; once the window closes the
    # scheduled release unpins and a kickstart resumes the run.
    FIR(num_samples=2048).enqueue(platform.driver)
    completed = platform.run(hang_wait=0.0)
    if not completed:  # hung inside the window: release + retry
        assert all(not b.pinned
                   for bufs in injector._pinned.values() for b in bufs)


def test_stats_and_to_dict_shapes(platform):
    injector = FaultInjector(platform.simulation, seed=3)
    injector.inject(FaultSpec(FaultKind.STALL, "*WriteBuffer*"))
    (payload,) = injector.to_dict()
    assert payload["kind"] == "stall"
    assert payload["target"] == "*WriteBuffer*"
    assert payload["applied_count"] == 0
    stats = injector.stats()
    assert stats["seed"] == 3
    assert stats["armed"] == 1
