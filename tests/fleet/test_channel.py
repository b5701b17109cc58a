"""The supervised worker channel on its own, against real
``repro.fleet.worker`` children (no mocks).

Damaged frames are covered by ``test_framing*.py``: the channel feeds
the same :class:`FrameDecoder` and adds no parsing of its own.
"""

import queue
import signal

import pytest

from repro.fleet.channel import WorkerChannel


def _spawn(*args):
    sink = queue.Queue()
    channel = WorkerChannel("repro.fleet.worker",
                            ["--worker-id", "w1", *args],
                            sink, "w1")
    return channel, sink


def _drain_to_eof(sink, timeout=60.0):
    """Every item up to and including the EOF marker."""
    items = []
    while not items or items[-1][2] is not None:
        items.append(sink.get(timeout=timeout))
    return items


def test_ready_arrives_stamped_and_shutdown_ends_with_one_eof():
    channel, sink = _spawn()
    try:
        first = sink.get(timeout=60.0)
        assert first[0] is channel
        assert first[2]["event"] == "ready"
        assert first[2]["worker_id"] == "w1"
        # An unknown command is answered (failed + ready again): more
        # events to order.
        assert channel.send({"cmd": "nonsense"}) is True
        channel.shutdown()
        items = [first] + _drain_to_eof(sink)
    finally:
        exit_code = channel.reap(10.0)
    assert exit_code == 0
    assert [e["event"] for _, _, e in items[:-1]] == \
        ["ready", "failed", "ready"]
    arrivals = [arrival for _, arrival, _ in items]
    assert arrivals == sorted(arrivals)
    assert [e for _, _, e in items].count(None) == 1
    assert sink.empty(), "nothing may follow the EOF item"


def test_sigkill_yields_one_eof_and_a_signal_exit_code():
    channel, sink = _spawn()
    try:
        assert sink.get(timeout=60.0)[2]["event"] == "ready"
        channel.process.send_signal(signal.SIGKILL)
        items = _drain_to_eof(sink)
    finally:
        exit_code = channel.reap(10.0)
    assert [e for _, _, e in items] == [None]
    assert exit_code == -signal.SIGKILL
    assert sink.empty()
    # The child is gone: send reports it, and does not raise.
    assert channel.send({"cmd": "run"}) is False
    channel.shutdown()  # a no-op on a dead child, not an error


@pytest.mark.parametrize("flag", ["--bogus", "--serve"])
def test_bogus_flag_exits_2_with_the_reason_in_the_stderr_tail(flag):
    channel, sink = _spawn(flag)
    try:
        items = _drain_to_eof(sink)
    finally:
        exit_code = channel.reap(10.0)
    assert [e for _, _, e in items] == [None]
    assert exit_code == 2
    assert any("unrecognized arguments" in line
               for line in channel.stderr_tail)
