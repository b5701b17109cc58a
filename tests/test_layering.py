"""The dependency-free core, stated as a test: ``akita`` imports no
sibling package of ``repro``, and ``gpu`` / ``workloads`` import only
``akita``, ``gpu`` and ``workloads`` — function-local imports included.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

ALLOWED = {
    "akita": {"akita"},
    "gpu": {"akita", "gpu", "workloads"},
    "workloads": {"akita", "gpu", "workloads"},
}


def _repro_packages_imported(source, package):
    """``(subpackage of repro, line)`` for every import in *source*, the
    text of a module living in *package* (a tuple of dotted-name parts)
    — every ``import`` node, at any nesting depth."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            targets = [alias.name.split(".") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] \
                if node.level else ()
            stem = list(base) + (node.module.split(".")
                                 if node.module else [])
            # ``from .. import core`` names the subpackage in the alias.
            targets = [stem] if len(stem) > 1 else \
                [stem + [alias.name] for alias in node.names]
        else:
            continue
        for target in targets:
            if target[0] == "repro" and len(target) > 1:
                yield target[1], node.lineno


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
