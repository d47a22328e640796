import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import ltlflearn

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = [
    "Alphabet", "Formula", "FormulaSyntaxError", "LearnResult", "LearnerConfig", "OperatorSet",
    "Sample", "SamplingBudgetError", "Task", "TaskFormatError", "TaskSpec", "Trace",
    "VerificationError", "Witness", "gen_task", "learn", "parse_formula", "parse_task",
    "render_formula", "separates", "serialize_sample",
]
# perfbench/ imports these from the package; they stay until it imports
# them from their modules.
HELD_FOR_THE_BENCHMARK = [
    "NoSolution", "Not", "collapse", "div_conq", "enumerate_bounded", "existence_check",
    "first_bits", "reconstruct", "table_of",
]


def test_star_import_gives_every_public_name():
    namespace: dict = {}
    exec("from ltlflearn import *", namespace)
    assert len(ltlflearn.__all__) == len(set(ltlflearn.__all__))
    for name in ltlflearn.__all__:
        assert namespace[name] is getattr(ltlflearn, name), name


def test_the_package_exports_the_learner_and_the_names_held_for_the_benchmark():
    assert sorted(ltlflearn.__all__) == sorted(PUBLIC + HELD_FOR_THE_BENCHMARK)


def ltlflearn_imports(source: str) -> list[tuple[str, str]]:
    """(module, name) of every name that source imports from ltlflearn
    or one of its modules, by `from ... import` at any depth."""
    return [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level == 0
        and (node.module == "ltlflearn" or node.module.startswith("ltlflearn."))
        for alias in node.names
    ]


def unresolved(imports: list[tuple[str, str]]) -> list[tuple[str, str]]:
    """The imports whose name is neither an attribute of its module nor
    a submodule of it."""
    missing = []
    for module, name in imports:
        if hasattr(importlib.import_module(module), name):
            continue
        try:
            importlib.import_module(f"{module}.{name}")
        except ModuleNotFoundError:
            missing.append((module, name))
    return missing


def test_the_import_finder_sees_every_form_and_flags_a_missing_name():
    source = (
        "from ltlflearn import learn, no_such_name\n"
        "from ltlflearn.boolcover import beam_search as bs\n"
        "from os import path\n"
        "def f():\n"
        "    from ltlflearn import biteval\n"
    )
    imports = ltlflearn_imports(source)
    assert imports == [
        ("ltlflearn", "learn"), ("ltlflearn", "no_such_name"),
        ("ltlflearn.boolcover", "beam_search"), ("ltlflearn", "biteval"),
    ]
    assert unresolved(imports) == [("ltlflearn", "no_such_name")]


def test_every_name_the_scripts_import_from_ltlflearn_resolves():
    # Tier-1 runs neither the benchmark nor every demo, so an import of a
    # name the package stopped exporting would otherwise go unseen.
    files = sorted(
        path for folder in ("perfbench", "tools", "demos") for path in (ROOT / folder).glob("*.py")
    )
    imports = {path.relative_to(ROOT).as_posix(): ltlflearn_imports(path.read_text())
               for path in files}
    assert {path.split("/")[0] for path, found in imports.items() if found} == {
        "perfbench", "tools", "demos"}
    assert {path: unresolved(found) for path, found in imports.items() if unresolved(found)} == {}


def test_importing_the_package_leaves_the_command_line_unloaded():
    # A fresh interpreter: the library's start-up pays for neither
    # argparse nor the command line's process pool.
    code = "import sys, ltlflearn; print(sorted(m for m in sys.modules if 'ltlflearn' in m))"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    loaded = ast.literal_eval(run.stdout)
    assert "ltlflearn.pipeline" in loaded and "ltlflearn.cli" not in loaded
