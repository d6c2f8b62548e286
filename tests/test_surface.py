"""The settable surface of the CLI and the library, pinned.

Every option a command takes and every value a library caller can set is a
knob a reader has to understand; a knob that changes no output is waste.
This test records both surfaces, so that adding a knob (or removing one)
is a visible edit here, made together with a test that the knob changes
what its command prints.
"""

import argparse
import dataclasses
import importlib
import inspect

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
SETTABLE_VALUES = 225
PUBLIC_NAMES = 79

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
