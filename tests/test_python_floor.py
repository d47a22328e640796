"""The sources compile and learn under the oldest Python that
pyproject.toml allows.

Compiling catches syntax newer than the floor; APIs newer than it (such
as `math.cbrt`, new in 3.11) show only in a run, so one
set-cover task is also learned under the floor and compared with the
run in this process, and so is a `generate` then `bench --jobs 2` run
of the command line.
"""

import json
import shutil
import subprocess
from pathlib import Path
from typing import Optional

import pytest

from ltlflearn.benchgen import TaskSpec, gen_task
from ltlflearn.cli import main
from ltlflearn.formulas import render_formula
from ltlflearn.pipeline import LearnerConfig, learn

ROOT = Path(__file__).resolve().parent.parent

# Compiles each file given in memory, so no bytecode is written.
COMPILE_ALL = (
    "import sys\n"
    "for path in sys.argv[1:]:\n"
    "    compile(open(path, encoding='utf-8').read(), path, 'exec')\n"
)

# A task shaped like the cover-split workload's: set cover with splits.
SPEC = dict(family="random-boolcomb", n_props=2, trace_len=16, n_pos=20, n_neg=20, seed=0,
            params={"n_patterns": 2})
CONFIG = dict(ltl2bs_switch=6, dc_switch=12)
# Learns SPEC's task under CONFIG with the sources in sys.argv[1]; prints
# the answer's status, method and formula text as JSON.
LEARN = (
    "import json, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from ltlflearn.benchgen import TaskSpec, gen_task\n"
    "from ltlflearn.formulas import render_formula\n"
    "from ltlflearn.pipeline import LearnerConfig, learn\n"
    f"sample = gen_task(TaskSpec(**{SPEC!r}))\n"
    f"result = learn(sample, LearnerConfig(**{CONFIG!r}))\n"
    "print(json.dumps([result.status, result.method,\n"
    "                  render_formula(result.formula, sample.alphabet)]))\n"
)

# The same kind of tasks, generated into suite/ and benched with two workers.
GENERATE = ["generate", "--family", "random-boolcomb", "--n", "2", "--props", "2",
            "--pos", "20", "--neg", "20", "--count", "2", "--out", "suite"]
BENCH = ["bench", "suite/manifest.csv", "--jobs", "2", "--ltl2bs-switch", "6",
         "--dc-switch", "12"]
# Runs GENERATE, then BENCH, through cli.main with the sources in
# sys.argv[1], in the working directory.
CLI = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from ltlflearn.cli import main\n"
    f"sys.exit(main({GENERATE!r}) or main({BENCH!r}))\n"
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


@pytest.fixture(scope="module")
def python():
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text()
    found = python_3_10()
    if found is None:
        pytest.skip("no Python 3.10 interpreter found")
    return found


def test_every_source_file_compiles_under_python_3_10(python):
    sources = sorted(str(path) for path in (ROOT / "src" / "ltlflearn").glob("*.py"))
    assert sources
    # -I ignores the PYTHON* variables and the user's site; -B writes no
    # bytecode for the modules the interpreter imports at start-up.
    done = subprocess.run(
        [python, "-I", "-B", "-c", COMPILE_ALL, *sources],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_learn_answers_alike_under_python_3_10(python):
    sample = gen_task(TaskSpec(**SPEC))
    result = learn(sample, LearnerConfig(**CONFIG))
    assert result.method == "BSC+DivConq"
    here = [result.status, result.method, render_formula(result.formula, sample.alphabet)]
    # -I leaves PYTHONPATH out, so the sources go on sys.path by hand.
    done = subprocess.run(
        [python, "-I", "-B", "-c", LEARN, str(ROOT / "src")],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == here


def generated_and_benched(directory: Path, stdout: str) -> tuple[dict, list[dict]]:
    """The bytes of each file GENERATE wrote under directory, by name, and
    the bench records in stdout without their elapsed_ms."""
    files = {path.name: path.read_bytes() for path in (directory / "suite").iterdir()}
    records = [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]
    for record in records:
        del record["elapsed_ms"]
    return files, records


def test_generate_and_bench_alike_under_python_3_10(python, tmp_path, capsys, monkeypatch):
    here, floor = tmp_path / "here", tmp_path / "floor"
    here.mkdir()
    floor.mkdir()
    monkeypatch.chdir(here)
    assert main(GENERATE) == 0 and main(BENCH) == 0
    expected = generated_and_benched(here, capsys.readouterr().out)
    assert sorted(expected[0]) == ["manifest.csv", "random-boolcomb-n2-len16-s0.trace",
                                   "random-boolcomb-n2-len16-s1.trace"]
    assert [record["status"] for record in expected[1]] == ["Solved", "Solved"]
    done = subprocess.run(
        [python, "-I", "-B", "-c", CLI, str(ROOT / "src")],
        capture_output=True, text=True, timeout=120, cwd=floor,
    )
    assert done.returncode == 0, done.stderr
    assert generated_and_benched(floor, done.stdout) == expected
