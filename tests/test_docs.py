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
