"""Tests for the TickStepper (the case-study-2 step-debugging shim)."""

import pytest

from repro.akita import Engine, TickingComponent
from repro.gpu import GPUPlatform
from repro.gpu.debug import TickStepper
from repro.workloads import StoreStorm


class _Counter(TickingComponent):
    def __init__(self, engine, budget=3):
        super().__init__("C", engine)
        self.port = self.add_port("P", 4)
        self.budget = budget
        self.blocked_on = None

    def tick(self):
        if self.budget == 0:
            self.blocked_on = "out of budget"
            return False
        self.budget -= 1
        self.port.incoming.append("item")  # fills without a wake-up
        return True


def test_step_runs_exactly_one_tick():
    engine = Engine()
    c = _Counter(engine)
    stepper = TickStepper(c)
    record = stepper.step()
    assert record.made_progress
    assert c.budget == 2
    assert len(stepper.records) == 1


def test_step_records_buffer_deltas():
    engine = Engine()
    c = _Counter(engine)
    stepper = TickStepper(c)
    record = stepper.step()
    assert record.buffer_levels["C.P.Buf"] == (0, 1)
    assert record.buffer_deltas == {"C.P.Buf": 1}


def test_stuck_component_diagnosed():
    engine = Engine()
    c = _Counter(engine, budget=1)
    stepper = TickStepper(c)
    stepper.step()           # consumes the budget
    stepper.step()           # now stuck
    assert stepper.stuck
    assert stepper.diagnosis() == "out of budget"
    assert not stepper.records[-1].buffer_deltas


def test_step_runs_as_many_ticks_as_asked():
    engine = Engine()
    c = _Counter(engine)
    stepper = TickStepper(c)
    stepper.step()
    record = stepper.step()
    assert len(stepper.records) == 2 and record is stepper.records[-1]
    assert c.budget == 1


def test_context_manager_uninstalls():
    engine = Engine()
    c = _Counter(engine)
    original = c.tick
    with TickStepper(c) as stepper:
        stepper.step()
        assert c.tick != original
    assert c.tick == original  # bound-method equality: same func+self


@pytest.mark.slow
def test_stepping_the_hung_write_buffer():
    """The full case-study-2 flow: hang, then step the suspects."""
    platform = GPUPlatform(StoreStorm.trigger_config(buggy=True))
    StoreStorm().enqueue(platform.driver)
    assert platform.run() is False  # the deadlock
    assert platform.simulation.run_state == "hung"

    l2 = platform.chiplets[0].l2s[0]
    wb = platform.chiplets[0].write_buffers[0]

    l2_step = TickStepper(l2)
    record = l2_step.step()
    assert not record.made_progress
    assert "write buffer" in l2_step.diagnosis()

    wb_step = TickStepper(wb)
    record = wb_step.step()
    assert not record.made_progress
    assert "local storage" in wb_step.diagnosis()
