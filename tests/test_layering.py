"""Import structure: which starfact modules each route may read, no
import that is never read, and no slow standard module on the import path.

Each route computes on its own and only ``verify`` compares one route with
another, so no route may import another.  The one piece two routes share
is the layered walk of ``factorisations``, which the group algebra reuses.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "starfact"

ANY = None  # the route may import any name of that module

# route module -> {starfact module it imports: the names it may import}
ROUTES = {
    "perms": {},
    "factorisations": {"perms": ANY},
    "formulas": {"perms": ANY},
    "bijections": {
        "perms": ANY,
        "factorisations": {"MonotoneDoubleFactorisation", "MonotoneFactorisation",
                           "StarFactorisation"},
    },
    "algebra": {"perms": ANY, "factorisations": {"_coding", "_join", "_walk"}},
}
# the modules that compare or present the routes, free to import any of them
FRONTS = {"verify", "cli", "__init__"}


def starfact_imports(path: Path) -> dict[str, set[str]]:
    """The starfact modules a file imports, each with the names it takes
    ("*" for the whole module)."""
    found: dict[str, set[str]] = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                module = node.module
            elif node.module == "starfact" or node.module.startswith("starfact."):
                module = node.module.removeprefix("starfact").lstrip(".") or "__init__"
            else:
                continue
            for alias in node.names:
                if module is None:  # from . import module
                    found.setdefault(alias.name, set()).add("*")
                else:
                    found.setdefault(module, set()).add(alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "starfact" or alias.name.startswith("starfact."):
                    module = alias.name.removeprefix("starfact").lstrip(".") or "__init__"
                    found.setdefault(module, set()).add("*")
    return found


def test_every_module_is_a_route_or_a_front():
    assert {path.stem for path in PACKAGE.glob("*.py")} == set(ROUTES) | FRONTS


@pytest.mark.parametrize("module", sorted(ROUTES))
def test_route_imports_only_its_pinned_names(module):
    allowed = ROUTES[module]
    imported = starfact_imports(PACKAGE / f"{module}.py")
    seen = {source: ANY if allowed.get(source, ()) is ANY else names
            for source, names in imported.items()}
    assert seen == allowed


SOURCES = sorted(
    [*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py"), *(ROOT / "demos").glob("*.py")]
)


def unused_imports(path: Path) -> list[str]:
    """Names a file imports and never reads; ``from __future__`` is
    exempt, and so is every name the file lists in ``__all__``."""
    tree = ast.parse(path.read_text())
    bound: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(bound.items()) if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def _loaded_by_import(*flags: str) -> set[str]:
    """The modules ``import starfact.cli`` adds in a fresh interpreter run
    with ``flags``, against those loaded before it, since site may preload
    some on its own."""
    code = ("import sys; before = set(sys.modules); import starfact.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    loaded = subprocess.run([sys.executable, *flags, "-c", code],
                            env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, check=True).stdout.split()
    assert "starfact.cli" in loaded
    return set(loaded)


def test_import_path_is_light():
    assert not {"dataclasses", "inspect", "fractions", "decimal", "json"} & _loaded_by_import()


def test_import_path_is_light_without_site():
    # site preloads typing on some hosts, which would hide it above
    assert "typing" not in _loaded_by_import("-S")
