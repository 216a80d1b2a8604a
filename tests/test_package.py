"""Package surface: every exported name resolves, and no module imports a
name it does not use."""

import ast
import importlib
from pathlib import Path

import pytest

import metricflow


@pytest.mark.parametrize("module", [
    "metricflow",
    "metricflow.ot_core",
    "metricflow.flow_core",
    "metricflow.generators",
    "metricflow.correspondence",
])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_each_public_name_is_listed_once():
    """The package exports exactly the module lists, in module order."""
    import metricflow
    from metricflow import correspondence, flow_core, generators, ot_core

    expected = ["__version__"]
    for mod in (ot_core, flow_core, generators, correspondence):
        expected += mod.__all__
    assert metricflow.__all__ == expected
    assert len(set(expected)) == len(expected)


def _unused_imports(path) -> list:
    """``file:line: name`` for each name the module at ``path`` imports but
    never reads as a name (``pyflakes`` would also accept one read only in
    ``__all__`` or a quoted annotation; no module here needs that)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in read]


def test_no_module_imports_a_name_it_does_not_use():
    """Every module of the package, ``__init__`` (which re-exports) aside,
    uses each name it imports."""
    modules = sorted(Path(metricflow.__file__).parent.glob("*.py"))
    unused = [hit for path in modules if path.name != "__init__.py" for hit in _unused_imports(path)]
    assert unused == []


def test_no_cover_pragmas_only_where_unreachable_by_construction():
    """``pragma: no cover`` marks only lines no input can reach: the two
    fallbacks behind argparse ``choices`` and the ``__main__`` guard."""
    marked = sorted(
        f"{path.name}: {line.strip()}"
        for path in Path(metricflow.__file__).parent.glob("*.py")
        for line in path.read_text().splitlines()
        if "pragma: no cover" in line
    )
    fallback = "cli.py: else:  # pragma: no cover - argparse restricts choices"
    assert marked == [fallback, fallback, 'cli.py: if __name__ == "__main__":  # pragma: no cover']
