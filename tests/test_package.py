"""Package surface: every exported name resolves, and no module imports a
name it does not use."""

import ast
import importlib
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import metricflow
from conftest import PYPROJECT


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


def test_ci_installs_what_pyproject_requires():
    """The CI workflow's pip line names pyproject's runtime and test
    requirements with the same specifiers, in the same order."""
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parent.parent
    with open(root / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    wanted = project["dependencies"] + project["optional-dependencies"]["test"]
    workflow = (root / ".github" / "workflows" / "tier1.yml").read_text()
    lines = [line.split("pip install", 1)[1] for line in workflow.splitlines() if "pip install" in line]
    assert len(lines) == 1
    assert shlex.split(lines[0]) == wanted


def test_ci_job_has_a_timeout():
    """The Tier-1 job stops after 15 minutes, so a hung solve cannot hold a
    runner for GitHub's 6-hour default."""
    workflow = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tier1.yml"
    job = re.search(r"^  tests:\n((?:    .*\n|\s*\n)*)", workflow.read_text(), re.M)
    assert job and re.search(r"^    timeout-minutes: 15$", job.group(1), re.M)


def test_a_failing_property_test_does_not_end_the_session(tmp_path):
    """Under the project's warning filters, a failing hypothesis test is
    reported as one failure and the tests after it still run: the plugin's
    report imports libcst, whose DeprecationWarning must not become an
    INTERNALERROR that skips the rest of the session."""
    pytest.importorskip("hypothesis")
    (tmp_path / "test_pair.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n\n\n"
        "def test_runs_after():\n"
        "    assert True\n"
    )
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
