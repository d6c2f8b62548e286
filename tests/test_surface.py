"""The settable surface of the CLI and the library, pinned, and reached.

Every option a command takes and every value a library caller can set is a
knob a reader has to understand; a knob that changes no output is waste.
This test records both surfaces, so that adding a knob (or removing one)
is a visible edit here, made together with a test that the knob changes
what its command prints.

A public name or member that no command, demo or benchmark reaches is
waste too: only its own tests call it.  The reach tests parse the program
(``src/rkbudget``, ``demos`` and ``bench``, not the tests) with ``ast`` and
find a reference to every name in an ``__all__`` outside its own
definition, and a read of every public method, property and classmethod of
a public class outside that class's body.  References are matched by name.
"""

import argparse
import ast
import contextlib
import dataclasses
import importlib
import inspect
import io
from pathlib import Path

import pytest

from rkbudget import cli
from rkbudget.scenarios import _DIM_KEYS, _PB_KEYS, _SCALAR_KEYS

COMMON = {"--format", "--output"}
SCENARIO = {"--scenario", "--overrides"}
STUDY = COMMON | {"--seed", "--nv"}
OPTIONS = {
    ("table",): COMMON | SCENARIO | {"--orders"},
    ("sweep",): COMMON | SCENARIO | {"--target", "--mode", "--points", "--order"},
    ("toy",): set(),
    ("toy", "kappa"): STUDY | {"--samples", "--theta"},
    ("toy", "norms"): STUDY | {"--samples", "--theta"},
    ("toy", "lip"): STUDY | {"--lo", "--hi", "--points"},
    ("validate",): COMMON | SCENARIO | {"--seed", "--method", "--mode", "--delta", "--ntau", "--trials", "--eta"},
    ("convergence",): COMMON | {"--method", "--steps", "--horizon"},
}
OVERRIDE_KEYS = {"T", "K", "M", "L_fy", "L_ftau", "epsilon", "a_max", "b_max", "Sigma", "N_V", "N_d", "N"}
LIBRARY_MODULES = ("bounds", "budget", "formats", "harness", "integrator", "scenarios", "sensitivity", "tableaux",
                   "toymodel")
SETTABLE_VALUES = 217
PUBLIC_NAMES = 78

# a small request per command, and two values of each of its options; None
# leaves the option out, and {out} and {ov} stand for an output and an
# override file
SMALL_REQUESTS = {
    ("toy", "kappa"): ("--nv", "2", "--samples", "30", "--seed", "1"),
    ("toy", "norms"): ("--nv", "2", "--samples", "30", "--seed", "1"),
    ("toy", "lip"): ("--nv", "2", "--points", "3", "--seed", "1"),
    ("sweep",): ("--scenario", "option_pricing", "--target", "K", "--points", "3"),
}
OUTPUT_VALUES = {"--format": ("csv", "json"), "--output": (None, "{out}")}
STUDY_VALUES = {"--nv": ("2", "3"), "--samples": ("30", "31"), "--theta": ("0.5", "1.5"), "--seed": ("1", "2"),
                **OUTPUT_VALUES}
OPTION_VALUES = {
    ("toy", "kappa"): STUDY_VALUES,
    ("toy", "norms"): STUDY_VALUES,
    ("toy", "lip"): {"--nv": ("2", "3"), "--lo": ("0", "1"), "--hi": ("10", "9"), "--points": ("3", "5"),
                     "--seed": ("1", "2"), **OUTPUT_VALUES},
    ("sweep",): {"--scenario": ("option_pricing", "tuned"), "--overrides": (None, "{ov}"), "--target": ("K", "T"),
                 "--mode": ("cost", "ncirc"), "--points": ("3", "5"), "--order": ("2", "3"), **OUTPUT_VALUES},
}


def subcommands(parser, path=()):
    """Each (sub)command's path and parser, depth first."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield (*path, name), sub
                yield from subcommands(sub, (*path, name))


def long_options(parser):
    return {opt for action in parser._actions for opt in action.option_strings if opt.startswith("--")} - {"--help"}


def settable_values(obj) -> int:
    """Parameters of a public function; init fields of a dataclass, or the
    ``__init__`` parameters (less ``self``) of a class that defines one; plus
    the parameters (less ``cls``) of a class's public classmethods."""
    if not inspect.isclass(obj):
        return len(inspect.signature(obj).parameters) if callable(obj) else 0
    if dataclasses.is_dataclass(obj):
        count = sum(f.init for f in dataclasses.fields(obj))
    else:
        count = len(inspect.signature(vars(obj)["__init__"]).parameters) - 1 if "__init__" in vars(obj) else 0
    return count + sum(len(inspect.signature(getattr(obj, name)).parameters) for name, attr in vars(obj).items()
                       if isinstance(attr, classmethod) and not name.startswith("_"))


def test_cli_options_override_keys_and_library_settable_values_are_pinned():
    assert {path: long_options(sub) for path, sub in subcommands(cli.build_parser())} == OPTIONS
    assert {**_PB_KEYS, **_SCALAR_KEYS, **_DIM_KEYS}.keys() == OVERRIDE_KEYS
    modules = [importlib.import_module(f"rkbudget.{name}") for name in LIBRARY_MODULES]
    public = [getattr(module, name) for module in modules for name in module.__all__]
    assert (sum(map(settable_values, public)), len(public)) == (SETTABLE_VALUES, PUBLIC_NAMES)


@pytest.mark.parametrize(
    "command, option",
    [(command, option) for command in SMALL_REQUESTS for option in sorted(OPTIONS[command])],
    ids=lambda item: " ".join(item) if isinstance(item, tuple) else item,
)
def test_each_option_changes_stdout(capsys, tmp_path, command, option):
    # every option of these commands, as pinned above, changes what it prints
    (tmp_path / "ov.txt").write_text("K=2\n")
    paths = {"out": tmp_path / "out.txt", "ov": tmp_path / "ov.txt"}
    printed = []
    for value in OPTION_VALUES[command][option]:
        argv = [*command, *SMALL_REQUESTS[command]]
        if value is not None:
            argv += [option, value.format(**paths)]
        assert cli.main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        printed.append(out)
    assert printed[0] != printed[1]


# Every option with an argparse type, on top of its command's smallest valid
# request, fed values at and past the edges of the usual rules.  toy lip's
# grid is wide enough that each value fed to --lo or --hi leaves --lo below
# --hi, a check that spans both options.
SMALLEST_REQUESTS = {
    ("table",): (),
    ("sweep",): ("--target", "K", "--points", "3"),
    ("toy", "kappa"): ("--nv", "1", "--samples", "30", "--seed", "1"),
    ("toy", "norms"): ("--nv", "1", "--samples", "30", "--seed", "1"),
    ("toy", "lip"): ("--nv", "1", "--points", "2", "--lo=-2", "--hi=2", "--seed", "1"),
    ("validate",): ("--method", "euler", "--ntau", "1", "--trials", "1"),
    ("convergence",): ("--method", "euler"),
}
EDGE_VALUES = ("nan", "inf", "-inf", "-1", "0", "1.5", "1e400", "")
TYPED_OPTIONS = [(path, opt) for path, sub in subcommands(cli.build_parser()) for action in sub._actions
                 if action.type is not None for opt in action.option_strings]


def test_every_command_with_typed_options_has_a_smallest_request():
    assert {path for path, _ in TYPED_OPTIONS} == set(SMALLEST_REQUESTS)


@pytest.mark.parametrize("value", EDGE_VALUES)
@pytest.mark.parametrize("command, option", TYPED_OPTIONS,
                         ids=lambda item: " ".join(item) if isinstance(item, tuple) else item)
def test_a_typed_option_runs_or_exits_2_naming_itself(command, option, value):
    # a value either runs, or stops where argparse reads it with one line
    # naming the option; it never raises
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*command, *SMALLEST_REQUESTS[command], f"{option}={value}"])
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith(f"error: argument {option}:"), err.getvalue()
        assert err.getvalue().count("\n") == 1
    else:
        assert code in (0, 1) and err.getvalue() == "", (code, err.getvalue())


ROOT = Path(__file__).resolve().parent.parent
PROGRAM = sorted(
    [p for p in (ROOT / "src" / "rkbudget").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "demos").glob("*.py"))
    + list((ROOT / "bench").glob("*.py")),
)
# (module, name) pairs that stay public with no caller in the program.
UNREACHED_ON_PURPOSE = {
    # The README documents it as the one sigma / sqrt(n_shots) conversion.
    ("src/rkbudget/harness.py", "shots_to_delta"),
}


def _references() -> list[tuple[str, str, str, str | None]]:
    """``(kind, name, module, owner)`` for each reference in the program:
    kind ``name`` for a loaded name or a ``from ... import``, ``attr`` for a
    loaded attribute; owner is the top-level function or class that holds
    it, or None."""
    refs = []
    for path in PROGRAM:
        rel = str(path.relative_to(ROOT))
        for stmt in ast.parse(path.read_text(), filename=rel).body:
            defines = isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            owner = stmt.name if defines else None
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    refs.append(("name", node.id, rel, owner))
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    refs.append(("attr", node.attr, rel, owner))
                elif isinstance(node, ast.ImportFrom):
                    refs += [("name", alias.name, rel, owner) for alias in node.names]
    return refs


def _public_surface() -> list[tuple[str, str, str | None]]:
    """``(module, name, None)`` for each name in a module's ``__all__``, and
    ``(module, class, member)`` for each public method, property and
    classmethod of a class in it."""
    surface = []
    for path in PROGRAM:
        tree = ast.parse(path.read_text())
        rel = str(path.relative_to(ROOT))
        exported = [elt.value for node in tree.body if isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                    for elt in node.value.elts]
        classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
        for name in exported:
            surface.append((rel, name, None))
            members = classes[name].body if name in classes else []
            surface += [(rel, name, member.name) for member in members
                        if isinstance(member, ast.FunctionDef) and not member.name.startswith("_")]
    return surface


def _reached(refs, module: str, name: str, member: str | None) -> bool:
    """A name is reached by a reference outside its own definition; a member
    by an attribute read outside its class's body."""
    if member is None:
        return any(ref[1] == name and ref[2:] != (module, name) for ref in refs)
    return any(ref[:2] == ("attr", member) and ref[2:] != (module, name) for ref in refs)


def test_every_public_name_and_member_has_a_caller_in_the_program():
    refs = _references()
    unreached = [(module, name, member) for module, name, member in _public_surface()
                 if not _reached(refs, module, name, member) and (module, name) not in UNREACHED_ON_PURPOSE]
    assert unreached == []


def test_each_unreached_on_purpose_name_is_still_public_and_unreached():
    refs = _references()
    surface = _public_surface()
    for module, name in UNREACHED_ON_PURPOSE:
        assert (module, name, None) in surface
        assert not _reached(refs, module, name, None)
