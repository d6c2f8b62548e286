"""Import hygiene, checked with ``ast`` since the project runs no linter.

Every name a module imports is used in that module, and the closed-form
modules import no numpy.  The package's ``__init__.py`` is left out: its
imports are its re-exports.
"""

import ast
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
