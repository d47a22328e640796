"""The sources compile under the oldest Python that pyproject.toml allows.

This catches syntax newer than the floor, not APIs newer than it (such
as `itertools.batched`, new in 3.11): those still need a run under the
floor itself.
"""

import shutil
import subprocess
from pathlib import Path
from typing import Optional

import pytest

ROOT = Path(__file__).resolve().parent.parent

# Compiles each file given in memory, so no bytecode is written.
COMPILE_ALL = (
    "import sys\n"
    "for path in sys.argv[1:]:\n"
    "    compile(open(path, encoding='utf-8').read(), path, 'exec')\n"
)


def runs(command: list[str]) -> Optional[str]:
    """The command's stdout, or None when it cannot start or fails."""
    try:
        done = subprocess.run(command, capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return None if done.returncode else done.stdout


def python_3_10() -> Optional[str]:
    """A Python 3.10 interpreter: python3.10 on the path, or else one that
    pyenv has installed, run directly rather than through pyenv's shim,
    which fails unless 3.10 is a selected version."""
    candidates = ["python3.10"]
    pyenv = shutil.which("pyenv")
    root = pyenv and runs([pyenv, "root"])
    if root:
        candidates += sorted(map(str, Path(root.strip()).glob("versions/3.10*/bin/python3.10")))
    for python in candidates:
        if runs([python, "--version"]) is not None:
            return python
    return None


def test_every_source_file_compiles_under_python_3_10():
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text()
    python = python_3_10()
    if python is None:
        pytest.skip("no Python 3.10 interpreter found")
    sources = sorted(str(path) for path in (ROOT / "src" / "ltlflearn").glob("*.py"))
    assert sources
    # -I ignores the PYTHON* variables and the user's site; -B writes no
    # bytecode for the modules the interpreter imports at start-up.
    done = subprocess.run(
        [python, "-I", "-B", "-c", COMPILE_ALL, *sources],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
