"""Documentation consistency checks."""

import argparse
import pathlib
import re

ROOT = pathlib.Path(__file__).parent.parent


def test_required_documents_exist():
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
        assert (ROOT / name).is_file(), f"{name} missing"


def test_readme_references_existing_paths():
    readme = (ROOT / "README.md").read_text()
    for path in re.findall(r"`((?:examples|benchmarks|src)/[\w/.]+)`",
                           readme):
        assert (ROOT / path).exists(), f"README references missing {path}"


def test_design_experiment_index_covers_all_figures():
    design = (ROOT / "DESIGN.md").read_text()
    for artifact in ("Fig. 3", "Fig. 4", "Fig. 5", "Fig. 6", "Fig. 7",
                     "CS 1", "CS 2"):
        assert artifact in design


def test_every_bench_in_design_exists():
    design = (ROOT / "DESIGN.md").read_text()
    for path in re.findall(r"`(benchmarks/[\w_]+\.py)`", design):
        assert (ROOT / path).is_file(), f"DESIGN references missing {path}"


def test_every_bench_is_in_the_experiment_index():
    """A bench reproduces a table or figure of the paper, or it does
    not live in ``benchmarks/``: timing lives in rtmbench, functional
    checks in tier-1."""
    design = (ROOT / "DESIGN.md").read_text()
    index = design.split("## Experiment index", 1)[1].split("\n## ", 1)[0]
    unindexed = [path.name for path in
                 sorted((ROOT / "benchmarks").glob("test_*.py"))
                 if f"`benchmarks/{path.name}" not in index]
    assert not unindexed, unindexed


def test_examples_advertised_in_readme_exist():
    readme = (ROOT / "README.md").read_text()
    for path in re.findall(r"python (examples/[\w_]+\.py)", readme):
        assert (ROOT / path).is_file()


def _option_strings(parser):
    """Every ``--flag`` of *parser* and of its whole subcommand tree."""
    flags = set()
    for action in parser._actions:
        flags.update(o for o in action.option_strings
                     if o.startswith("--"))
        if isinstance(action, argparse._SubParsersAction):
            for child in action.choices.values():
                flags |= _option_strings(child)
    return flags


def test_docs_name_only_flags_the_parsers_have():
    """A flag deleted from the CLI must leave the docs with it."""
    from repro.cli import _build_parser
    from repro.fleet.worker import _build_parser as _worker_parser

    known = (_option_strings(_build_parser())
             | _option_strings(_worker_parser())
             | {"--benchmark-only"})  # pytest-benchmark's, not ours
    for name in ("README.md", "EXPERIMENTS.md"):
        text = (ROOT / name).read_text()
        named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", text))
        assert named <= known, \
            f"{name} names unknown flags: {sorted(named - known)}"


def _route_rows():
    """The rows of the three servers' route tables, ``RTMServer``'s
    composed and the fleet gateway's with the historian's rows, which a
    bound ``HistorianService`` mounts on it."""
    from repro.core.server import route_rows
    from repro.fleet.gateway import ROUTES as fleet_routes
    from repro.historian.service import ROUTES as historian_routes
    from repro.shard.coordinator import ROUTES as shard_routes
    return route_rows() + fleet_routes + historian_routes + shard_routes


def _route_paths():
    return {spec.partition("?")[0] for _, spec, _, _ in _route_rows()}


def _is_served(path, routes):
    """Whether *path*, as prose spells it, names a route: ``a|b`` in
    its last segment is two paths, a trailing ``/*`` a prefix, and
    ``/api/fleet/<worker>/<endpoint>`` and ``/api/fleet/jobs/<job>/
    metrics`` are the two families ``FleetGateway.unrouted`` serves."""
    stem, _, last = path.rpartition("/")
    if last == "*":
        return any(route.startswith(stem + "/") for route in routes)
    if all(f"{stem}/{name}" in routes for name in last.split("|")):
        return True
    return path.startswith("/api/fleet/") and path.count("/") >= 4


def test_docs_name_only_paths_the_route_tables_have():
    routes = _route_paths()
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
        text = (ROOT / name).read_text().replace("\\|", "|")
        named = re.findall(
            r"(?<![\w/>])/metrics\b|/api/[a-z0-9_/<>|*]*[a-z0-9_>*]", text)
        unknown = sorted({p for p in named if not _is_served(p, routes)})
        assert not unknown, f"{name} names unknown routes: {unknown}"


def test_readme_names_every_route_of_the_three_tables():
    readme = (ROOT / "README.md").read_text().replace("\\|", "|")
    for method, spec, _, purpose in _route_rows():
        row = f"| {method} | `{spec}` | {purpose} |"
        assert row in readme, f"README lacks the row {row}"


def test_readme_names_the_package_that_answers_each_rtm_route():
    from repro.core.server import RTMServer, route_rows
    readme = (ROOT / "README.md").read_text().replace("\\|", "|")
    for method, spec, _, purpose in route_rows():
        handler = RTMServer.routes[(method, spec.partition("?")[0])]
        package = handler.__module__.split(".")[1]
        row = f"| {method} | `{spec}` | {purpose} | `{package}` |"
        assert row in readme, f"README lacks the row {row}"


def test_client_calls_only_routes_the_tables_have():
    routes = _route_paths()
    client = (ROOT / "src" / "repro" / "core" / "client.py").read_text()
    called = set(re.findall(r'"(/api/[a-z_/]+|/metrics)"', client))
    assert called and called <= routes, sorted(called - routes)


def test_design_inventory_names_only_files_that_exist():
    design = (ROOT / "DESIGN.md").read_text()
    inventory = design.split("## System inventory")[1].split("\n## ")[0]
    checked = 0
    for line in inventory.splitlines():
        cells = line.split("|")
        if len(cells) < 4 or set(cells[2]) <= set(" -"):
            continue  # not a table row, or the header rule
        for entry in re.findall(r"`([\w/{},.]+)`", cells[2]):
            stem, brace, rest = entry.partition("{")
            names = rest.partition("}")[0].split(",") if brace else [""]
            tail = rest.partition("}")[2]
            for name in names:
                path = ROOT / "src" / "repro" / f"{stem}{name}{tail}"
                assert path.exists(), \
                    f"DESIGN's inventory names missing {stem}{name}{tail}"
                checked += 1
    assert checked > 60


def test_public_modules_have_docstrings():
    import importlib

    for module_name in (
            "repro", "repro.akita", "repro.gpu", "repro.workloads",
            "repro.core", "repro.studies",
            "repro.akita.engine", "repro.akita.component",
            "repro.akita.simulation",
            "repro.core.monitor", "repro.core.server",
            "repro.core.inspector", "repro.profile.continuous",
            "repro.akita.threads", "repro.historian.rules",
            "repro.core.bottleneck", "repro.core.timeseries",
            "repro.core.hangdetect", "repro.core.resources",
            "repro.core.client", "repro.core.alerts",
            "repro.core.export", "repro.core.watchdog",
            "repro.faults", "repro.faults.injector",
            "repro.faults.scenarios", "repro.faults.campaign",
            "repro.fleet", "repro.fleet.queue", "repro.fleet.worker",
            "repro.fleet.manager", "repro.fleet.gateway",
            "repro.metrics.federation",
            "repro.gpu.platform", "repro.gpu.rob", "repro.gpu.cu",
            "repro.gpu.rdma", "repro.gpu.network", "repro.gpu.debug",
            "repro.studies.session", "repro.studies.survey",
            "repro.cli"):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a docstring"


def test_public_classes_have_docstrings():
    from repro import akita, core, faults, fleet, gpu

    for namespace in (akita, core, faults, fleet, gpu):
        for name in namespace.__all__:
            obj = getattr(namespace, name)
            if isinstance(obj, type):
                assert obj.__doc__, f"{namespace.__name__}.{name}"
