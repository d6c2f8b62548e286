"""Import hygiene, checked with ``ast`` since the project runs no linter.

Every name a module imports is used in that module, and the closed-form
modules import no numpy.  The package's ``__init__.py`` is left out: its
imports are its re-exports.  A command that runs no study loads no thread
pool, logging or numpy.random, which a fresh process checks.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    [p for p in (ROOT / "src" / "rkbudget").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
    + list((ROOT / "demos").glob("*.py")),
)
NUMPY_FREE = ("bounds.py", "budget.py", "formats.py")


def _imports(tree: ast.Module) -> list[tuple[str, str]]:
    """``(module, bound name)`` for each name an import statement binds."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(alias.name, alias.asname or alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.module or "", alias.asname or alias.name) for alias in node.names]
    return bound


def _used(tree: ast.Module) -> set[str]:
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):  # a name listed in __all__ is exported, so used
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names |= {elt.value for elt in node.value.elts}
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = [name for _, name in _imports(tree) if name not in _used(tree)]
    assert unused == []


@pytest.mark.parametrize("name", NUMPY_FREE)
def test_closed_form_modules_import_no_numpy(name):
    tree = ast.parse((ROOT / "src" / "rkbudget" / name).read_text())
    assert [m for m, _ in _imports(tree) if m.split(".")[0] == "numpy"] == []


def test_commands_that_run_no_study_load_no_thread_pool_logging_or_numpy_random():
    # concurrent.futures pulls in logging and queue, tens of milliseconds of
    # every CLI start, and numpy.random about ten more, which only seeded
    # commands use; the toy studies import concurrent.futures when they run,
    # so neither the CLI module nor a table request may pull any of them in
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    modules = "{'concurrent.futures', 'logging', 'numpy.random', 'queue'}"
    code = ("import io, sys, contextlib, rkbudget.cli\n"
            f"loaded = lambda: sorted({modules} & set(sys.modules))\n"
            "imported = loaded()\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = rkbudget.cli.main(['table'])\n"
            "print(code, imported, loaded())")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "0 [] []"
