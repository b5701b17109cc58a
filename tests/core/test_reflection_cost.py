"""Reflection must not tax the simulation it looks at.

On CPython 3.11/3.12 the first ``vars(obj)`` / ``obj.__dict__`` /
``hasattr(obj, "__dict__")`` turns an instance's inline attribute values
into a real dict, and every later attribute access on that instance is
several times slower.  The monitor's reflection (buffer discovery at
registration, the on-demand component panel) must find the same things
as before without doing that to any component, the engine or its queue.
"""

import gc
import pickle
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.akita import Buffer, Component, Engine
from repro.akita.hooks import instance_fields
from repro.checkpoint import Checkpointer, load_checkpoint
from repro.core import (BufferAnalyzer, Monitor, discover_buffers,
                        inspector, serialize_component)
from repro.gpu import GPUPlatform, GPUPlatformConfig
from repro.gpu.debug import TickStepper
from repro.workloads import FIR

DATA = Path(__file__).parent / "data"

needs_inline_values = pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="instances have a real __dict__ from birth before 3.11")


_MISSING = object()


def has_materialised_dict(obj) -> bool:
    """Whether *obj*'s attributes live in a real dict, asked without
    creating one: an instance with inline values refers to the values
    themselves, a materialised one to the dict that holds them — a
    dict among its referents that is its attribute table, every key an
    attribute of *obj* holding that very value."""
    return any(type(ref) is dict and ref
               and all(isinstance(name, str)
                       and getattr(obj, name, _MISSING) is value
                       for name, value in ref.items())
               for ref in gc.get_referents(obj))


@pytest.fixture
def platform():
    return GPUPlatform(GPUPlatformConfig.small(num_chiplets=2))


def _watched_objects(platform):
    simulation = platform.simulation
    engine = simulation.engine
    return [*simulation.components, *simulation.connections, engine,
            engine._queue]


@pytest.fixture
def checkpointed(platform, tmp_path):
    """A FIR run that saved four checkpoints on its way, and the path
    of the last one."""
    FIR(num_samples=256).enqueue(platform.driver)
    path = str(tmp_path / "ckpt.rtm")
    checkpointer = Checkpointer(platform, path, every_events=300)
    checkpointer.start()
    assert platform.run()
    checkpointer.stop()
    assert checkpointer.count >= 2 and checkpointer.errors == 0
    return platform, path


def test_analyzer_finds_the_same_buffers_in_the_same_order(platform):
    """``small2_buffer_names.txt``: what discovery through ``vars()``
    found on this platform before it stopped touching ``__dict__``."""
    analyzer = BufferAnalyzer()
    for component in platform.simulation.components:
        analyzer.register_component(component)
    names = [row.name for row in analyzer.snapshot(include_empty=True)]
    expected = (DATA / "small2_buffer_names.txt").read_text().split()
    assert len(expected) == 117
    # snapshot() sorts stably and every buffer is empty: discovery order.
    assert names == expected


@dataclass
class _Progress:
    """A dataclass with defaults: class attributes its instances
    shadow."""

    name: str
    total: int = 0
    done: int = 0


@needs_inline_values
def test_detector_sees_a_materialised_dict(platform):
    component = platform.simulation.components[0]
    progress = _Progress("k", total=4)
    assert not has_materialised_dict(component)
    assert not has_materialised_dict(progress)
    vars(component)
    vars(progress)
    assert has_materialised_dict(component)
    assert has_materialised_dict(progress)
    assert not has_materialised_dict({"name": "k"})


def test_a_dataclass_reads_the_same_before_and_after_vars():
    """Defaults are class attributes; the reader finds the instance's
    values without ``vars()``, and after something else materialised
    the dict it reads that dict instead of counting it as a field."""
    progress = _Progress("k", total=4)
    before = instance_fields(progress)
    assert before == {"done": 0, "name": "k", "total": 4}
    if sys.version_info >= (3, 11):
        assert not has_materialised_dict(progress)
    vars(progress)
    assert instance_fields(progress) == before
    progress.extra = [1]  # assigned from outside the class's code
    assert instance_fields(progress) == {**before, "extra": [1]}


def _panel_walk(platform, monkeypatch):
    """Serialise every registered component twice; returns both
    renderings and every object the panel read fields of."""
    reached = {}
    read = inspector._public_attrs

    def recording(obj):
        reached[id(obj)] = obj
        return read(obj)

    monkeypatch.setattr(inspector, "_public_attrs", recording)
    components = platform.simulation.components
    first = [serialize_component(c) for c in components]
    second = [serialize_component(c) for c in components]
    return first, second, list(reached.values())


@pytest.mark.parametrize("paused", [False, True], ids=["finished",
                                                       "paused"])
def test_the_second_click_shows_what_the_first_did(platform, monkeypatch,
                                                    paused):
    FIR(num_samples=256).enqueue(platform.driver)
    if paused:  # mid-way: workgroups in flight, messages in buffers
        platform.start()
        platform.engine.run_until(1.2e-7)
        assert platform.driver.kernels[0].ongoing > 0
    else:
        assert platform.run()
    first, second, reached = _panel_walk(platform, monkeypatch)
    assert first == second
    driver = next(r for r in first if r["name"] == "Driver")
    [kernel] = driver["fields"]["kernels"]["preview"]
    assert {"total", "completed", "ongoing"} <= set(kernel["fields"])
    assert len(reached) > len(platform.simulation.components)
    if sys.version_info >= (3, 11):
        assert [type(obj).__name__ for obj in reached
                if has_materialised_dict(obj)] == []


@needs_inline_values
def test_monitoring_materialises_no_dict(platform):
    FIR(num_samples=256).enqueue(platform.driver)
    assert not any(map(has_materialised_dict, _watched_objects(platform)))
    monitor = Monitor(platform.simulation)
    monitor.attach_driver(platform.driver)
    monitor.overview()
    monitor.progress_bars()
    monitor.analyzer.snapshot(top=20)
    by_class = {type(monitor._components[name]): name
                for name in monitor.component_names()}
    for name in by_class.values():
        detail = monitor.component_detail(name)
        assert detail["fields"] and detail["watchable"]
    monitor.ensure_sim_metrics().start()
    monitor.ensure_tracer().start()
    assert platform.run()
    monitor.metrics.snapshot()
    monitor.tracer.query(limit=10)
    assert not any(map(has_materialised_dict, _watched_objects(platform)))


@needs_inline_values
def test_the_step_debugger_leaves_its_component_as_fast_as_it_found_it(
        platform):
    """Removing the wrapped ``tick`` through ``__dict__`` would
    materialise it for the rest of the process."""
    FIR(num_samples=256).enqueue(platform.driver)
    component = platform.chiplets[0].l2s[0]
    stepper = TickStepper(component)
    stepper.install()
    assert not has_materialised_dict(component)
    assert stepper.step() is stepper.records[-1]
    stepper.uninstall()
    assert not has_materialised_dict(component)
    assert component.tick.__func__ is type(component).tick
    stepper.uninstall()  # idempotent
    before = component.tick_count
    assert platform.run() and component.tick_count > before
    assert len(stepper.records) == 1  # the breakpoint is really gone


@needs_inline_values
def test_checkpointing_materialises_no_dict(checkpointed):
    """Saving pickles every component: its state must be read field by
    field, or a fleet job with a checkpoint cadence runs the rest of
    its simulation on slow attribute access."""
    platform, _ = checkpointed
    assert not any(map(has_materialised_dict, _watched_objects(platform)))


@needs_inline_values
def test_a_restored_simulation_materialises_no_dict(checkpointed):
    _, path = checkpointed
    restored, _ = load_checkpoint(path, workload=FIR(num_samples=256))
    assert not any(map(has_materialised_dict, _watched_objects(restored)))
    assert restored.run()
    assert not any(map(has_materialised_dict, _watched_objects(restored)))


class _Odd(Component):
    """Fields the class's own code never mentions."""

    level = 1  # shadowed per instance below

    def __init__(self, engine):
        super().__init__("Sys.Odd", engine)
        self.inside = Buffer("Sys.Odd.Inside", 2)

    def handle(self, event):
        pass


def test_fields_assigned_from_outside_the_class_are_still_found():
    odd = _Odd(Engine())
    odd.bolted_on = 41
    odd.level = 2
    fields = serialize_component(odd)["fields"]
    assert fields["bolted_on"] == 41
    assert fields["level"] == 2
    assert fields["inside"]["name"] == "Sys.Odd.Inside"
    assert [b.name for b in discover_buffers(odd)] == ["Sys.Odd.Inside"]


@needs_inline_values
def test_a_checkpoint_leaves_the_kernel_descriptor_as_fast_as_it_found_it(
        platform):
    """Saving reads the descriptor's fields, not its ``__dict__``: every
    dispatched workgroup reads ``wavefronts_per_wg`` after the save."""
    FIR(num_samples=256).enqueue(platform.driver)
    platform.start()
    platform.engine.run_until(1.2e-7)
    descriptor = platform.driver.kernels[0].descriptor
    assert not has_materialised_dict(descriptor)
    restored = pickle.loads(pickle.dumps(platform.simulation))
    assert not has_materialised_dict(descriptor)
    driver = next(c for c in restored.components if c.name == "Driver")
    kernel = driver.kernels[0].descriptor
    assert (kernel.name, kernel.num_workgroups, kernel.program) == \
        (descriptor.name, descriptor.num_workgroups, None)
