"""The dependency-free core, stated as a test: ``akita`` imports no
sibling package of ``repro``, and ``gpu`` / ``workloads`` import only
``akita``, ``gpu`` and ``workloads`` (and the lazy-table helper
``_lazy``) — function-local imports included.

And ``core`` imports no plane: not ``trace``, ``profile``, ``faults`` or
``checkpoint``, function-local imports included.  The strings of
``core/server.py``'s ``PLANES`` manifest are its only reference to them;
a plane plugs in by registering its routes.

And ``fleet`` imports no historian: the historian is a plane that
mounts its own routes on the gateway it records.  ``fleet/cli.py`` is
exempt — it wires a recorded campaign, as ``cli.py`` wires core's
planes.

And a workload is reached through its name table: outside
``repro/workloads/`` no module imports a workload module directly.

And the engine's fast door stays inside its layer: ``akita`` pushes onto
the event heap without ``Engine.schedule()`` where it has established
"time >= now"; nobody outside ``akita`` touches the queue at all.

And there is one front door: only ``core/http.py`` touches a socket or
writes a response, and no module defines a ``do_GET``-style handler
method — a route returns its answer to the one dispatch.

And the command line is a table: ``cli.py`` names the planes in its
``SUBCOMMANDS`` rows and the simulator it runs, nothing else, and a
plane's ``cli.py`` imports nothing but the stdlib and ``repro.cli``
until a handler runs.

And an id belongs to the collection that hands it out: ``core``,
``faults`` and ``historian`` build no counter at module or class level.

And a loop that wakes every N seconds is written once: a thread is
constructed only by ``akita/threads.py``'s ``Periodic``, the transport,
the pipe readers, the event-driven fleet scheduler and the live study
session (every other simulation, the sharded one too, runs to its end on
its caller's thread, in ``guarded``), and nobody else spells
``while not stop.wait(interval)``; a run's ``rtm-progress`` heartbeat is
built only by ``guarded``.

``python tests/test_layering.py`` prints ``src/repro`` lines per package
and in total (the number ROADMAP's aim 2 is judged by).
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

ALLOWED = {
    "akita": {"akita"},
    "gpu": {"akita", "gpu", "workloads"},
    # ``_lazy`` (which imports nothing of ``repro``) makes its name
    # table lazy.
    "workloads": {"_lazy", "akita", "gpu", "workloads"},
}


def _imported_names(source, package):
    """``(dotted-name parts, line)`` of everything *source*, the text of a
    module living in *package* (a tuple of dotted-name parts), imports —
    every ``import`` node, at any nesting depth; ``from a.b import c``
    names ``a.b.c``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split("."), node.lineno
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] \
                if node.level else ()
            stem = list(base) + (node.module.split(".")
                                 if node.module else [])
            for alias in node.names:
                yield stem + [alias.name], node.lineno


def _repro_packages_imported(source, package):
    """``(subpackage of repro, line)`` for every import in *source*."""
    for target, line in _imported_names(source, package):
        if target[0] == "repro" and len(target) > 1:
            yield target[1], line


@pytest.mark.parametrize("layer", sorted(ALLOWED))
def test_layer_imports_only_downward(layer):
    offenders = []
    for path in sorted((SRC / "repro" / layer).rglob("*.py")):
        package = path.relative_to(SRC).parts[:-1]
        for imported, line in _repro_packages_imported(
                path.read_text(), package):
            if imported not in ALLOWED[layer]:
                offenders.append(f"{path.relative_to(SRC)}:{line} "
                                 f"imports repro.{imported}")
    assert not offenders, "\n".join(offenders)


def test_the_walker_sees_relative_aliased_and_function_local_imports():
    """The check is only as good as its walker: the import this layer
    rule removed from ``akita/engine.py`` and its other spellings must
    all be caught."""
    source = (
        "from ..profile.threads import register_current_thread\n"
        "from .engine import Engine\n"
        "def f():\n"
        "    from .. import core\n"
        "    import repro.trace.store\n"
        "    import threading\n")
    found = sorted(name for name, _ in _repro_packages_imported(
        source, ("repro", "akita")))
    assert found == ["akita", "core", "profile", "trace"]


#: The planes ``core`` reaches only through the manifest's strings.
PLANES = {"trace", "profile", "faults", "checkpoint"}


def _plane_imports(source, package=("repro", "core")):
    return [(name, line) for name, line
            in _repro_packages_imported(source, package) if name in PLANES]


def test_core_imports_no_plane():
    offenders = []
    for path in sorted((SRC / "repro" / "core").rglob("*.py")):
        package = path.relative_to(SRC).parts[:-1]
        offenders += [f"{path.relative_to(SRC)}:{line} imports repro.{name}"
                      for name, line in _plane_imports(path.read_text(),
                                                       package)]
    assert not offenders, "\n".join(offenders)


def test_the_plane_rule_sees_every_spelling_and_spares_the_manifest():
    """What ``Monitor.ensure_tracer`` and ``server.py`` did before the
    manifest, each spelling — and the manifest's own strings, which are
    no import."""
    source = (
        "from ..profile import ContinuousProfiler\n"
        "import repro.checkpoint.format\n"
        "PLANES = {'/api/trace': 'repro.trace.tracer'}\n"
        "def ensure_tracer():\n"
        "    from ..trace import RingStore\n"
        "def arm():\n"
        "    from .. import faults\n"
        "    from .watchdog import Watchdog\n")
    assert sorted(_plane_imports(source)) == [
        ("checkpoint", 2), ("faults", 7), ("profile", 1), ("trace", 5)]


#: Where a campaign is wired: the one ``fleet`` module that may name the
#: historian.
FLEET_WIRING = "repro/fleet/cli.py"


def _historian_imports(source, package=("repro", "fleet")):
    return [line for name, line in _repro_packages_imported(source, package)
            if name == "historian"]


def test_fleet_imports_no_historian():
    offenders = []
    for path in sorted((SRC / "repro" / "fleet").rglob("*.py")):
        where = path.relative_to(SRC).as_posix()
        if where == FLEET_WIRING:
            continue
        offenders += [f"{where}:{line} imports repro.historian"
                      for line in _historian_imports(
                          path.read_text(), path.relative_to(SRC).parts[:-1])]
    assert not offenders, "\n".join(offenders)


def test_the_historian_rule_sees_every_spelling():
    """What ``fleet/gateway.py`` did before the historian brought its own
    routes, and the other spellings — a docstring or a string naming the
    historian is no import."""
    source = (
        '"""Mounted by repro.historian.service."""\n'
        "from ..historian import rules as hr\n"
        "import repro.historian.store\n"
        "ROW = ('GET', '/api/historian')\n"
        "def _add_rule(self, params):\n"
        "    from ..historian.rules import MetricRule\n"
        "def _other():\n"
        "    from .. import historian\n"
        "    from .queue import JobQueue\n")
    assert _historian_imports(source) == [2, 3, 6, 8]


#: The modules behind ``repro.workloads``' name table.
WORKLOAD_MODULES = {path.stem for path in
                    (SRC / "repro" / "workloads").glob("*.py")}


def _workload_module_imports(source, package):
    """``(workload module, line)`` for every import in *source* that
    names a module behind the workloads table instead of the table:
    ``from ..workloads.fir import FIR``, ``import repro.workloads.fir``,
    ``from ..workloads import fir``."""
    for target, line in _imported_names(source, package):
        if target[:2] == ["repro", "workloads"] and len(target) > 2 \
                and target[2] in WORKLOAD_MODULES:
            yield target[2], line


def test_a_workload_is_reached_through_its_table():
    """Outside ``repro/workloads/`` nobody imports a workload module: a
    process names a workload, and the table loads that one."""
    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        relative = path.relative_to(SRC)
        if relative.parts[:2] == ("repro", "workloads"):
            continue
        offenders += [f"{relative}:{line} imports repro.workloads.{name}"
                      for name, line in _workload_module_imports(
                          path.read_text(), relative.parts[:-1])]
    assert not offenders, "\n".join(offenders)


def test_the_workload_rule_sees_every_spelling_but_not_the_table():
    source = (
        "from ..workloads.fir import FIR\n"
        "import repro.workloads.im2col\n"
        "from ..workloads import Workload, base\n"
        "from repro.workloads import make_workload, FIR\n"
        "def f():\n"
        "    from .. import workloads\n"
        "    from ..workloads import storestorm as s\n")
    assert sorted(_workload_module_imports(source, ("repro", "core"))) == [
        ("base", 3), ("fir", 1), ("im2col", 2), ("storestorm", 7)]


#: The one reader of the heap outside ``akita``: restore reconciles
#: each component's schedule flag with the ticks frozen in the queue.
QUEUE_READERS = {("repro/checkpoint/format.py", "_revive_ticking")}


def _engine_queue_reads(source):
    """``(enclosing function, line)`` of every ``x._queue``, ``x._heap``
    or ``x._seq`` where *x* is not plain ``self`` (a component's own
    ``self._queue`` is its business; ``self._engine._queue`` is not)."""
    def walk(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Attribute) \
                and node.attr in ("_queue", "_heap", "_seq") \
                and not (isinstance(node.value, ast.Name)
                         and node.value.id == "self"):
            yield function, node.lineno
        for child in ast.iter_child_nodes(node):
            yield from walk(child, function)
    return walk(ast.parse(source), None)


def test_only_akita_reaches_into_the_event_queue():
    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if relative.startswith("repro/akita/"):
            continue
        for function, line in _engine_queue_reads(path.read_text()):
            if (relative, function) not in QUEUE_READERS:
                offenders.append(f"{relative}:{line} ({function})")
    assert not offenders, "\n".join(offenders)


def test_the_queue_rule_sees_through_a_chain_but_not_own_state():
    source = (
        "class C:\n"
        "    def own(self):\n"
        "        return self._queue, self._seq\n"
        "    def chained(self):\n"
        "        heappush(self._engine._queue._heap, entry)\n"
        "def free(engine):\n"
        "    return next(engine._queue._seq)\n")
    found = sorted(_engine_queue_reads(source))
    assert found == [("chained", 5), ("chained", 5),
                     ("free", 7), ("free", 7)]


#: The one module that touches a socket (transport and dispatch).
TRANSPORT = "repro/core/http.py"
_TRANSPORT_NAMES = {"socketserver", "wfile", "_respond"}
_HANDLER_METHODS = {"do_GET", "do_POST", "do_DELETE"}


def _front_door_breaches(source, is_transport=False):
    """``(name, line)`` of every ``do_GET``-style method defined in
    *source* and — unless it is the transport's own — of every import
    of ``socketserver`` and every ``wfile`` / ``_respond`` it names."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names, banned = [node.name], _HANDLER_METHODS
        elif is_transport:
            continue
        elif isinstance(node, ast.Import):
            names = [alias.name.split(".")[0] for alias in node.names]
            banned = _TRANSPORT_NAMES
        elif isinstance(node, ast.ImportFrom):
            names = [(node.module or "").split(".")[0]]
            banned = _TRANSPORT_NAMES
        elif isinstance(node, ast.Attribute):
            names, banned = [node.attr], _TRANSPORT_NAMES
        elif isinstance(node, ast.Name):
            names, banned = [node.id], _TRANSPORT_NAMES
        else:
            continue
        for name in names:
            if name in banned:
                yield name, node.lineno


def test_only_the_transport_touches_a_socket_and_nobody_subclasses_it():
    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        for name, line in _front_door_breaches(
                path.read_text(), is_transport=relative == TRANSPORT):
            offenders.append(f"{relative}:{line} ({name})")
    assert not offenders, "\n".join(offenders)


def test_the_front_door_rule_sees_each_spelling_but_not_lookalikes():
    source = (
        "import socketserver\n"
        "from socketserver import ThreadingTCPServer\n"
        "class Handler(Base):\n"
        "    def do_GET(self):\n"
        "        self.wfile.write(b'x')\n"
        "        self._respond(200, 'text/plain', b'x')\n"
        "    def tick(self):\n"
        "        self._respond_queue.append(self._respond_ready())\n"
        "        return 'socketserver'\n")
    assert sorted(_front_door_breaches(source)) == [
        ("_respond", 6), ("do_GET", 4), ("socketserver", 1),
        ("socketserver", 2), ("wfile", 5)]
    assert list(_front_door_breaches(source, is_transport=True)) == [
        ("do_GET", 4)]


#: Packages whose ids belong to the collection that hands them out: a
#: counter there is built per object, never shared by the process.
PER_OBJECT_IDS = ("core", "faults", "historian")


def _shared_counters(source):
    """Lines of every ``itertools.count(...)`` (or imported ``count(...)``)
    built outside a function — at module or class level, where one
    counter numbers every object of the process."""
    def walk(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if (isinstance(func, ast.Name) and func.id == "count") or (
                        isinstance(func, ast.Attribute)
                        and func.attr == "count"
                        and isinstance(func.value, ast.Name)
                        and func.value.id == "itertools"):
                    yield child.lineno
            yield from walk(child)
    return list(walk(ast.parse(source)))


def test_ids_come_from_the_collection_not_the_process():
    """A second monitor, alert engine or injector in one process (a warm
    fleet worker's next job) numbers from 1 like the first."""
    offenders = []
    for package in PER_OBJECT_IDS:
        for path in sorted((SRC / "repro" / package).rglob("*.py")):
            offenders += [f"{path.relative_to(SRC)}:{line}"
                          for line in _shared_counters(path.read_text())]
    assert not offenders, "\n".join(offenders)


def test_the_counter_rule_sees_module_and_class_level_only():
    source = (
        "import itertools\n"
        "from itertools import count\n"
        "_ids = itertools.count(1)\n"
        "more = count()\n"
        "class Spec:\n"
        "    ids = itertools.count()\n"
        "    id: int = field(default_factory=lambda: next(count()))\n"
        "    def __init__(self):\n"
        "        self._ids = itertools.count(1)\n"
        "def f():\n"
        "    return itertools.count()\n"
        "letters = 'abca'.count('a')\n")
    assert _shared_counters(source) == [3, 4, 6]


#: Who may construct a thread, and how many times: the periodic loop,
#: the transport (accept loop + one per connection), the pipe readers,
#: the event-queue scheduler, and the one site that drives a simulation
#: from a thread while the caller does something else: the study's live
#: session (a script drives it while it serves).  The sharded run is
#: not one: its coordinator has an abort, so it runs in ``guarded``.
THREAD_SITES = {
    "repro/akita/threads.py": 1,
    "repro/core/http.py": 2,
    "repro/fleet/channel.py": 1,
    "repro/fleet/manager.py": 1,
    "repro/studies/session.py": 1,
}
PERIODIC = "repro/akita/threads.py"


def _thread_sites_and_wait_loops(source):
    """``("Thread" | "wait-loop", line)`` for every ``threading.Thread(``
    / ``Thread(`` call and every ``while not <x>.wait(...)`` loop."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            callee = node.func
            name = callee.attr if isinstance(callee, ast.Attribute) \
                else getattr(callee, "id", None)
            if name == "Thread":
                yield "Thread", node.lineno
        elif isinstance(node, ast.While) \
                and isinstance(node.test, ast.UnaryOp) \
                and isinstance(node.test.op, ast.Not) \
                and isinstance(node.test.operand, ast.Call) \
                and isinstance(node.test.operand.func, ast.Attribute) \
                and node.test.operand.func.attr == "wait":
            yield "wait-loop", node.lineno


def test_a_periodic_loop_is_written_once():
    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        found = list(_thread_sites_and_wait_loops(path.read_text()))
        threads = [line for kind, line in found if kind == "Thread"]
        if len(threads) > THREAD_SITES.get(relative, 0):
            offenders += [f"{relative}:{line} (Thread)" for line in threads]
        if relative != PERIODIC:
            offenders += [f"{relative}:{line} (wait-loop)"
                          for kind, line in found if kind == "wait-loop"]
    assert not offenders, "\n".join(offenders)
    assert sum(THREAD_SITES.values()) <= 6


def test_the_thread_rule_sees_each_spelling_but_not_lookalikes():
    source = (
        "import threading\n"
        "from threading import Thread\n"
        "t = threading.Thread(target=f)\n"
        "u = Thread(target=f, daemon=True)\n"
        "while not self._stop.wait(self.interval):\n"
        "    pass\n"
        "while not stop.is_set():\n"
        "    if stop.wait(1.0): break\n"
        "threading.current_thread()\n")
    assert sorted(_thread_sites_and_wait_loops(source)) == [
        ("Thread", 3), ("Thread", 4), ("wait-loop", 5)]


def _heartbeats(source):
    """Lines of every ``Periodic("rtm-progress…", …)`` construction."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call) or getattr(
                node.func, "attr", getattr(node.func, "id", None)) \
                != "Periodic":
            continue
        names = node.args[:1] + [keyword.value for keyword in node.keywords
                                 if keyword.arg == "name"]
        if any(isinstance(name, ast.Constant)
               and str(name.value).startswith("rtm-progress")
               for name in names):
            yield node.lineno


def test_a_run_heartbeat_is_built_only_by_the_guarded_run():
    """One heartbeat per run, built where the run is guarded: a caller
    passes ``progress=`` to ``run_guarded`` or ``guarded``, it does not
    start its own ``rtm-progress`` loop beside the run."""
    offenders = [f"{path.relative_to(SRC).as_posix()}:{line}"
                 for path in sorted((SRC / "repro").rglob("*.py"))
                 if path.relative_to(SRC).as_posix() != PERIODIC
                 for line in _heartbeats(path.read_text())]
    assert not offenders, "\n".join(offenders)
    assert list(_heartbeats(
        (SRC / "repro" / "akita" / "threads.py").read_text())) != []


def test_the_heartbeat_rule_sees_each_spelling_but_not_lookalikes():
    source = (
        "from ..akita import threads\n"
        "a = Periodic('rtm-progress', 0.2, beat)\n"
        "b = threads.Periodic('rtm-progress-w1', interval=0.2, body=f)\n"
        "c = Periodic(name='rtm-progress', interval=0.2, body=f)\n"
        "d = Periodic('rtm-sampler', 0.2, beat)\n"
        "e = Periodic(name, 0.2, beat)\n")
    assert list(_heartbeats(source)) == [2, 3, 4]


#: What ``cli.py`` may name besides the planes of its own table: the
#: simulator it runs (and ``akita``'s signal guard), the monitor it
#: attaches, the paper's study — and the shard plane, whose command line
#: is a flag of ``run``.
CLI_OWN = {"akita", "gpu", "workloads", "core", "studies", "shard"}


def _subcommand_modules():
    """The ``SUBCOMMANDS`` tuple of ``cli.py``, read without importing."""
    tree = ast.parse((SRC / "repro" / "cli.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and node.targets[0].id == "SUBCOMMANDS")


def _eager_non_stdlib_imports(source, package):
    """Dotted names of what *source* imports at module level from
    outside the standard library (function-local imports run when a
    handler does, and are not this rule's business)."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] \
                if node.level else ()
            names = [".".join([*base, *filter(None, [node.module])])]
        else:
            continue
        for name in names:
            if name.split(".")[0] not in sys.stdlib_module_names:
                yield name


def test_cli_names_only_its_table_and_the_simulator():
    planes = set()
    for module in _subcommand_modules():
        top, plane, leaf = module.split(".")
        assert (top, leaf) == ("repro", "cli"), module
        source = (SRC / "repro" / plane / "cli.py").read_text()
        assert "def register(subparsers)" in source, module
        planes.add(plane)
    named = {name for name, _ in _repro_packages_imported(
        (SRC / "repro" / "cli.py").read_text(), ("repro",))}
    assert named <= planes | CLI_OWN, sorted(named - planes - CLI_OWN)


def test_a_planes_cli_imports_only_the_stdlib_and_the_registry():
    modules = sorted((SRC / "repro").glob("*/cli.py"))
    assert {f"repro.{path.parent.name}.cli" for path in modules} \
        == set(_subcommand_modules())
    for path in modules:
        package = path.relative_to(SRC).parts[:-1]
        eager = set(_eager_non_stdlib_imports(path.read_text(), package))
        assert eager <= {"repro.cli"}, f"{path.relative_to(SRC)}: {eager}"


def test_the_eager_import_rule_sees_each_spelling_but_not_local_ones():
    source = (
        "from __future__ import annotations\n"
        "import argparse, json\n"
        "import repro.core\n"
        "from ..cli import run_guarded\n"
        "from . import Historian\n"
        "from .store import Historian\n"
        "def handler(args):\n"
        "    from ..core import Monitor\n")
    assert sorted(_eager_non_stdlib_imports(
        source, ("repro", "historian"))) == [
            "repro.cli", "repro.core", "repro.historian",
            "repro.historian.store"]


if __name__ == "__main__":
    lines = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC / "repro").parts
        package = parts[0] if len(parts) > 1 else "(top level)"
        lines[package] = lines.get(package, 0) + len(
            path.read_text().splitlines())
    print(f"{'package':14s}{'lines':>8s}")
    for package, count in sorted(lines.items()):
        print(f"{package:14s}{count:8d}")
    print(f"{'src/repro':14s}{sum(lines.values()):8d}")
