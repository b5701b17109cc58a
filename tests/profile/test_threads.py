"""The thread-role registry and the sim-thread registration contract."""

import threading

from repro.akita import Engine, threads
from repro.akita.threads import register_current_thread, role_of


def _simulation_thread():
    """The ident holding the ``simulation`` role, or None."""
    return next((ident for ident, role in threads._roles.items()
                 if role == "simulation"), None)


def test_register_and_unregister_current_thread():
    ident = register_current_thread("simulation")
    try:
        assert ident == threading.get_ident()
        assert _simulation_thread() == ident
        assert role_of(ident) == "simulation"
    finally:
        threads._roles.pop(ident)
    assert _simulation_thread() is None
    assert role_of(ident) == "other"


def test_role_moves_with_reregistration():
    """One role, one thread: a new claim drops the stale one."""
    claimed = []

    def claim():
        claimed.append(register_current_thread("simulation"))

    worker = threading.Thread(target=claim)
    worker.start()
    worker.join()
    assert _simulation_thread() == claimed[0]  # even though it exited
    ident = register_current_thread("simulation")
    try:
        assert _simulation_thread() == ident
        assert role_of(claimed[0]) == "other"
    finally:
        threads._roles.pop(ident)


def test_name_discipline_maps_daemon_threads():
    assert role_of(-1, "rtm-server-7") == "server"
    assert role_of(-1, "rtm-sampler") == "monitor"
    assert role_of(-1, "rtm-watchdog") == "monitor"
    assert role_of(-1, "rtm-cprofiler") == "profiler"
    assert role_of(-1, "MainThread") == "main"
    assert role_of(-1, "ThreadPoolExecutor-0_0") == "other"


def test_engine_run_registers_simulation_thread():
    """The regression behind the unpinned-profiler fix: the sim thread
    is whoever calls ``Engine.run()``, registered on every entry."""
    engine = Engine()
    seen = {}

    def run():
        engine.run()  # empty queue: returns immediately, but registers
        seen["ident"] = threading.get_ident()

    worker = threading.Thread(target=run)
    worker.start()
    worker.join()
    try:
        assert _simulation_thread() == seen["ident"]
    finally:
        threads._roles.pop(seen["ident"])
