"""Each demo script, and the README's library quick start, runs to completion
against the package in ``src/``; the demos whose output depends on no BLAS
threading print pinned bytes."""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# sha256 of stdout: closed-form budget tables and the option-pricing round trip
PINNED_DEMO_DIGESTS = {
    "budget_tables.py": "d499280f6db73aa4a0adedec308fd59367845167297c8272396692ea42ccea34",
    "option_pricing_roundtrip.py": "7f4fd83f3b7c0b081c551d3877dfbb865e7f60b164459334c549aa1a19fae2be",
}


def test_demos_exist():
    assert DEMOS


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    assert run_python(str(demo)).strip()


@pytest.mark.parametrize("name", sorted(PINNED_DEMO_DIGESTS))
def test_demo_stdout_is_pinned(name):
    out = run_python(str(ROOT / "demos" / name))
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_DEMO_DIGESTS[name]


def test_readme_library_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S)
    assert block, "README.md has no python block under '## Library quick start'"
    assert run_python("-c", block.group(1)) == "2\n"
