"""Checkpoint/restore: exactness, damage detection, revival.

The contract under test is the durability layer's engine half
(ISSUE 7): a snapshot taken at an event boundary restores to a
simulation that finishes with *identical* results, a damaged file is
rejected loudly, and a snapshot of a stalled (fault-comatose) run
resumes making progress after restore.
"""

import json
import random
import threading

import pytest

from repro.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointError,
    Checkpointer,
    load_checkpoint,
    save_checkpoint,
)
from repro.akita import TickEvent
from repro.akita.connection import DeliveryEvent
from repro.akita.hooks import HookPos
from repro.gpu import GPUPlatform, GPUPlatformConfig
from repro.workloads import FIR
from tests.akita.kernels import KERNELS


def _platform():
    return GPUPlatform(GPUPlatformConfig.small(num_chiplets=2))


def _workload():
    return FIR(num_samples=4096)


def _cold_reference():
    platform = _platform()
    _workload().enqueue(platform.driver)
    assert platform.run()
    return platform


# ----------------------------------------------------------------------
# Exactness
# ----------------------------------------------------------------------
def test_mid_run_checkpoint_resumes_to_identical_final_state(tmp_path):
    reference = _cold_reference()

    platform = _platform()
    _workload().enqueue(platform.driver)
    path = str(tmp_path / "ckpt.rtm")
    ckpt = Checkpointer(platform, path, every_events=10_000)
    ckpt.start()
    assert platform.run()
    ckpt.stop()
    assert ckpt.count >= 2, "cadence should have fired repeatedly"
    assert ckpt.errors == 0

    restored, header = load_checkpoint(path, workload=_workload())
    t_restore = restored.engine.now
    assert t_restore > 0.0
    assert t_restore < reference.engine.now
    assert header["meta"]["sim_time"] == t_restore

    assert restored.run()
    assert restored.engine.now == reference.engine.now
    assert [k.completed for k in restored.driver.kernels] \
        == [k.completed for k in reference.driver.kernels]
    assert restored.driver.commands_completed \
        == reference.driver.commands_completed


def test_a_restored_retry_redoes_less_than_half_of_a_cold_run(tmp_path):
    """What checkpoint-resume buys a retried job, in the engine's own
    unit of work: one snapshot at ~60% of a FIR(8192) run (the last
    periodic checkpoint well behind the failure point, the worst case
    a sane cadence produces) leaves the retry under half the events."""
    def workload():
        return FIR(num_samples=8192)

    cold = _platform()
    workload().enqueue(cold.driver)
    assert cold.run()
    cold_events = cold.engine.event_count

    platform = _platform()
    workload().enqueue(platform.driver)
    path = str(tmp_path / "ckpt.rtm")
    ckpt = Checkpointer(platform, path, every_events=cold_events * 3 // 5)
    ckpt.start()
    assert platform.run()
    ckpt.stop()
    assert ckpt.count == 1, "cadence should leave one snapshot at ~60%"

    restored, _ = load_checkpoint(path, workload=workload())
    events_at_restore = restored.engine.event_count
    assert restored.engine.now > 0.0
    assert restored.run()
    redo_events = restored.engine.event_count - events_at_restore
    assert redo_events < cold_events * 0.5, (redo_events, cold_events)


def test_save_over_http_mid_run_restores_to_the_same_end(tmp_path):
    """``POST /api/checkpoint?action=save`` end to end: a snapshot
    requested through the client while the run is live restores to a
    run that ends at the uninterrupted run's event count and time."""
    import threading
    import time

    from repro.core import Monitor, RTMClient

    reference = _cold_reference()
    platform = _platform()
    _workload().enqueue(platform.driver)
    # At full speed the run can end before the pause request is served
    # (then the snapshot is of the finished run); slowed to a pace the
    # request always beats, the run is live when it is saved.
    platform.engine.set_throttle(50_000)
    monitor = Monitor(platform.simulation)
    path = str(tmp_path / "live.rtm")
    monitor.attach_checkpointer(Checkpointer(platform, path))
    client = RTMClient(monitor.start_server())
    thread = threading.Thread(target=platform.run, daemon=True)
    thread.start()
    try:
        deadline = time.monotonic() + 30.0
        while platform.engine.event_count < 1000 \
                and time.monotonic() < deadline:
            time.sleep(0.001)
        client.pause()
        saved = client.checkpoint_save()
        client.continue_()
        thread.join(timeout=60.0)
    finally:
        monitor.stop_server()
    assert not thread.is_alive()
    assert saved["saved"] and saved["count"] == 1

    restored, header = load_checkpoint(path, workload=_workload())
    assert 0.0 < header["meta"]["sim_time"] < reference.engine.now
    assert restored.engine._throttle_delay == 0.0, \
        "the saving monitor's slow-down came back with the snapshot"
    assert restored.engine.event_count < reference.engine.event_count
    assert restored.run()
    assert restored.engine.event_count == reference.engine.event_count
    assert restored.engine.now == reference.engine.now


#: Event boundaries of the small StoreStorm (8,922 events) whose
#: restores once diverged from the cold run (1560: +1 event, 1976: +1,
#: 2210: +9, 7267: -1) when restore rewrote every schedule flag from
#: the queue, plus a seeded sample of the rest.
SWEEP_BOUNDARIES = sorted({1560, 1976, 2210, 7267,
                           *random.Random(41).sample(range(1, 8922), 8)})


def _deliveries(platform):
    """``(event count, message id)`` of every delivery *platform* makes
    from now on, in order."""
    engine, seen = platform.engine, []

    def record(port, now, msg):
        seen.append((engine.event_count, msg.id))

    for comp in platform.simulation.components:
        comp.accept_hook(record, positions=(HookPos.PORT_DELIVER,))
    return seen


def test_restore_is_exact_at_every_swept_event_boundary(tmp_path):
    """A snapshot taken between any two events resumes to the cold
    run's event count and end time, and no one renumbers the run: the
    run that saved and every restored run deliver the cold run's
    messages under the cold run's ids."""
    make = KERNELS["storestorm_small"].make

    def build():
        platform = _platform()
        make().enqueue(platform.driver)
        return platform

    cold = build()
    cold_ids = _deliveries(cold)
    assert cold.run()
    platform = build()
    saver_ids = _deliveries(platform)
    engine = platform.engine
    saved = []

    def save(ctx):
        if engine.event_count in SWEEP_BOUNDARIES:
            path = str(tmp_path / f"{engine.event_count}.rtm")
            save_checkpoint(platform, path)
            saved.append((engine.event_count, path))

    engine.accept_hook(save, positions=(HookPos.AFTER_EVENT,))
    assert platform.run()
    assert [n for n, _ in saved] == SWEEP_BOUNDARIES
    assert saver_ids == cold_ids, "a save uses up no message id"
    ends = {}
    for boundary, path in saved:
        restored, _ = load_checkpoint(path, workload=make())
        restored_ids = _deliveries(restored)
        assert restored.run()
        ends[boundary] = (restored.engine.event_count, restored.engine.now)
        # Events are counted after their handler: the deliveries of the
        # events after the save record counts from the boundary on.
        assert restored_ids == [d for d in cold_ids if d[0] >= boundary], \
            boundary
    assert ends == {n: (cold.engine.event_count, cold.engine.now)
                    for n in SWEEP_BOUNDARIES}


def test_restored_wavefronts_replay_their_op_streams(tmp_path):
    """The checkpoint lands mid-kernel, so live wavefront generators
    must be rehydrated and fast-forwarded — progress counters prove
    the replay produced real (not empty) op streams."""
    platform = _platform()
    _workload().enqueue(platform.driver)
    path = str(tmp_path / "ckpt.rtm")
    ckpt = Checkpointer(platform, path, every_events=15_000)
    ckpt.start()
    assert platform.run()
    ckpt.stop()

    restored, _ = load_checkpoint(path, workload=_workload())
    kernel = restored.driver.kernels[0]
    before = kernel.completed
    assert not kernel.done
    assert restored.run()
    assert kernel.done
    assert kernel.completed > before


def test_checkpoint_of_stalled_run_revives_on_restore(tmp_path):
    """A stall fault puts components into a wakeable coma and the run
    hangs.  A snapshot of that hung state must restore to a platform
    that completes — the watchdog's restore escalation depends on it."""
    platform = _platform()
    _workload().enqueue(platform.driver)
    from repro.faults import FaultInjector, FaultKind, FaultSpec
    injector = FaultInjector(platform.simulation)
    injector.inject(FaultSpec(FaultKind.STALL, "*WriteBuffer*", start=5e-7))

    assert not platform.run(), "stall should hang the run"
    assert platform.simulation.run_state == "hung"

    path = str(tmp_path / "hung.rtm")
    save_checkpoint(platform, path)
    restored, _ = load_checkpoint(path, workload=_workload())
    assert restored.run(), "revived snapshot should complete"
    assert restored.driver.kernels[0].done


def test_restored_ports_still_expose_their_buffers_own_queue(tmp_path):
    """``Port.incoming`` is an alias components read every tick; a
    restore that rebuilt it as a copy would show them an empty port
    forever.  (Files from before the alias existed are version 2 and
    refused at the header: ``test_unsupported_version_is_rejected``.)"""
    platform = _platform()
    _workload().enqueue(platform.driver)
    platform.start()
    platform.engine.run_until(2e-7)
    path = str(tmp_path / "ckpt.rtm")
    save_checkpoint(platform, path)
    restored, _ = load_checkpoint(path, workload=_workload())
    ports = [port for component in restored.simulation.components
             for port in component.ports]
    assert ports and any(port.incoming for port in ports)
    assert all(port.incoming is port.buf._items for port in ports)
    assert restored.run()


def test_events_built_at_the_hot_sites_restore_to_the_same_run(tmp_path):
    """Ticks and deliveries are built without ``__init__`` (slots filled
    at the push site); frozen in a snapshot they must replay exactly:
    same end time, same event count as the same run never
    checkpointed."""
    def paused_at_200ns():
        platform = _platform()
        _workload().enqueue(platform.driver)
        platform.start()
        platform.engine.run_until(2e-7)
        return platform

    reference = paused_at_200ns()
    assert reference.run()
    platform = paused_at_200ns()
    pending = {type(entry[3]) for entry in platform.engine._queue._heap}
    assert {TickEvent, DeliveryEvent} <= pending
    path = str(tmp_path / "ckpt.rtm")
    save_checkpoint(platform, path)
    restored, _ = load_checkpoint(path, workload=_workload())
    assert restored.run()
    assert restored.engine.now == reference.engine.now
    assert restored.engine.event_count == reference.engine.event_count
    assert [k.completed for k in restored.driver.kernels] \
        == [k.completed for k in reference.driver.kernels]


# ----------------------------------------------------------------------
# Damage detection
# ----------------------------------------------------------------------
def test_corrupt_payload_is_rejected(tmp_path):
    platform = _platform()
    path = str(tmp_path / "ckpt.rtm")
    save_checkpoint(platform, path)
    blob = bytearray(open(path, "rb").read())
    blob[-20] ^= 0xFF  # flip one payload bit
    open(path, "wb").write(bytes(blob))
    with pytest.raises(CheckpointError, match="SHA-256"):
        load_checkpoint(path)


def test_truncated_file_is_rejected(tmp_path):
    platform = _platform()
    path = str(tmp_path / "ckpt.rtm")
    save_checkpoint(platform, path)
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[:len(blob) - 64])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


@pytest.mark.parametrize("version", [999, *range(1, CHECKPOINT_VERSION)])
def test_unsupported_version_is_rejected(tmp_path, version):
    """Newer files, and older ones (whose pickled events had an ``id``
    slot this build's classes lack), stop at the header."""
    platform = _platform()
    path = str(tmp_path / "ckpt.rtm")
    save_checkpoint(platform, path)
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        rest = fh.read()
    header["version"] = version
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n" + rest)
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_garbage_file_is_rejected(tmp_path):
    path = str(tmp_path / "noise.rtm")
    open(path, "wb").write(b"not a checkpoint at all\nmore noise")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_missing_file_is_rejected(tmp_path):
    with pytest.raises(CheckpointError, match="cannot read"):
        load_checkpoint(str(tmp_path / "absent.rtm"))


def test_load_without_program_source_names_the_kernel(tmp_path):
    platform = _platform()
    _workload().enqueue(platform.driver)
    path = str(tmp_path / "ckpt.rtm")
    save_checkpoint(platform, path)
    with pytest.raises(CheckpointError, match="fir"):
        load_checkpoint(path)


# ----------------------------------------------------------------------
# Format / cadence mechanics
# ----------------------------------------------------------------------
def test_saves_atomically_overwrite_one_path(tmp_path):
    platform = _platform()
    path = str(tmp_path / "ckpt.rtm")
    ckpt = Checkpointer(platform, path, every_events=1)
    first = ckpt.save_now()
    second = ckpt.save_now()
    assert first["meta"]["checkpoint_seq"] == 0
    assert second["meta"]["checkpoint_seq"] == 1
    assert load_checkpoint(path)[1]["meta"]["checkpoint_seq"] == 1
    assert list(tmp_path.iterdir()) == [tmp_path / "ckpt.rtm"], \
        "no temp files may survive a save"


def test_meta_carries_caller_fields_and_watermark(tmp_path):
    """The caller's fields and the engine's, and no id watermark:
    events carry no id, and the engine pickles its own
    ``next_msg_id``."""
    platform = _platform()
    path = str(tmp_path / "ckpt.rtm")
    header = save_checkpoint(platform, path,
                             meta={"job_id": "j1", "attempt": 2})
    meta = header["meta"]
    assert meta["job_id"] == "j1"
    assert meta["attempt"] == 2
    assert not [key for key in meta if "watermark" in key]
    assert meta["sim_time"] == platform.engine.now
    assert load_checkpoint(path)[1] == header


def test_unpicklable_state_is_counted_not_fatal(tmp_path):
    """A momentary unpicklable (e.g. a pin fault's pending lambda
    callbacks) must skip the snapshot, not kill the run."""
    platform = _platform()
    platform.simulation.set_completion_check(lambda: False)  # closure
    ckpt = Checkpointer(platform, str(tmp_path / "ckpt.rtm"),
                        every_events=1)
    assert ckpt.save_now() is None
    assert ckpt.errors == 1
    assert "picklable" in ckpt.last_error
    assert ckpt.count == 0 and ckpt.last_header is None


def test_without_a_cadence_it_saves_only_on_request(tmp_path):
    """``Checkpointer(platform, path)`` installs no hook and starts no
    thread: the run takes no snapshot, and ``save_paused`` (the ``POST
    /api/checkpoint`` path) still saves."""
    platform = _platform()
    _workload().enqueue(platform.driver)
    path = str(tmp_path / "ckpt.rtm")
    threads_before = set(threading.enumerate())
    ckpt = Checkpointer(platform, path)
    ckpt.start()
    assert platform.engine.num_hooks == 0
    assert set(threading.enumerate()) == threads_before
    assert platform.run()
    assert ckpt.count == 0 and ckpt.status()["every_events"] == 0
    assert ckpt.save_paused()
    ckpt.stop()
    assert ckpt.count == 1
    restored, header = load_checkpoint(path, workload=_workload())
    assert header["meta"]["event_count"] == platform.engine.event_count
    assert restored.engine.now == platform.engine.now
