"""Unit tests for the scenario library and declarative bundles."""

import pytest

from repro.akita.ticker import GHZ
from repro.faults import (
    LIBRARY,
    Expectation,
    FaultInjector,
    FaultScenario,
    FaultSpec,
    cycles,
    slow_network,
    write_buffer_stall,
)
from repro.gpu import GPUPlatform, GPUPlatformConfig


def test_cycles_converts_at_engine_frequency():
    assert cycles(1.0) == pytest.approx(1.0 / GHZ)
    assert cycles(50.0, freq=2e9) == pytest.approx(25e-9)


def test_library_names_match_scenario_names():
    for name, factory in LIBRARY.items():
        scenario = factory()
        assert scenario.name == name
        assert scenario.faults, name
        assert scenario.description, name


def test_expectation_defaults_check_nothing():
    e = Expectation()
    assert e.hang_within is None and e.completes is None
    assert e.buffer_pattern is None


def test_arm_injects_fresh_copies():
    platform = GPUPlatform(GPUPlatformConfig.small(num_chiplets=2))
    injector = FaultInjector(platform.simulation)
    scenario = write_buffer_stall()
    template = scenario.faults[0]
    template.applied_count = 99  # dirty the template

    (armed,) = scenario.arm(injector)
    assert armed is not template
    assert (armed.id, template.id) == (1, 0)  # the injector numbers
    assert armed.applied_count == 0
    assert armed.target == template.target
    # Template list untouched; arming twice yields another fresh copy.
    (again,) = scenario.arm(injector)
    assert again is not armed and again.id == 2
    assert scenario.faults == [template]


def test_scenario_to_dict_round_trips_key_fields():
    scenario = slow_network(delay_cycles=10)
    payload = scenario.to_dict()
    assert payload["name"] == "slow-network"
    assert payload["faults"][0]["kind"] == "delay"
    assert payload["faults"][0]["delay"] == pytest.approx(cycles(10))


def test_custom_scenario_composition():
    scenario = FaultScenario(
        name="double-trouble",
        faults=[FaultSpec("stall", "*WriteBuffer*"),
                FaultSpec("drop", "*RDMA*", probability=0.5)],
        expect=Expectation(completes=False),
        seed=11)
    assert len(scenario.faults) == 2
    assert scenario.seed == 11
