"""tools/code_lines.py, on a module whose counts are known line by line."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

MODULE = '''"""A module docstring
over two lines."""

# A comment line.
import os  # a trailing comment: still code


def f():
    """One docstring line."""
    text = """not a docstring,
# so this line is code

and the blank line above it is blank"""
    return os.sep + text


class C:
    """A class
    docstring."""

    x = 1
'''
# code: import, def, text =, its '#' line, its last line, return, class, x = 1
CODE, DOCSTRING, TOTAL = 8, 5, 21


def test_counts_a_module_with_known_lines():
    assert code_lines.count(MODULE) == (CODE, DOCSTRING, TOTAL)


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "known.py").write_text(MODULE)
    (tmp_path / "empty.py").write_text("")
    assert code_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [
        ["module", "code", "docstring", "total"],
        ["empty.py", "0", "0", "0"],
        ["known.py", str(CODE), str(DOCSTRING), str(TOTAL)],
        ["total", str(CODE), str(DOCSTRING), str(TOTAL)],
    ]
