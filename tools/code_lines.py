"""Count code, docstring and total lines per module of src/ltlflearn/.

A docstring line is any line of a module, class or function docstring,
found by an `ast` walk. A code line is a line that is not blank, not a
comment and not a docstring line; a line inside a string that is not a
docstring is code. Total is every line of the file.

    python tools/code_lines.py             # src/ltlflearn/
    python tools/code_lines.py DIR_OR_FILE  # any Python files

Prints one row per module, then the sum as `total`.
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_LAYOUT_TOKENS = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers spanned by every docstring in the tree."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int, int]:
    """(code, docstring, total) lines of one module's source."""
    text_lines = source.splitlines()
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    covered: set[int] = set()  # lines that hold a token other than layout or a comment
    for tok in tokens:
        if tok.type not in _LAYOUT_TOKENS:
            covered.update(range(tok.start[0], tok.end[0] + 1))
    docs = docstring_lines(ast.parse(source))
    code = sum(
        1 for number, line in enumerate(text_lines, 1)
        if line.strip() and number in covered and number not in docs
    )
    return code, len(docs), len(text_lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("path", nargs="?", default=str(ROOT / "src" / "ltlflearn"))
    path = Path(parser.parse_args(argv).path)
    files = sorted(path.glob("*.py")) if path.is_dir() else [path]
    rows = [(f.name, *count(f.read_text(encoding="utf-8"))) for f in files]
    rows.append(("total", *(sum(row[i] for row in rows) for i in (1, 2, 3))))
    width = max(len(name) for name, *_ in rows)
    print(f"{'module':<{width}}  {'code':>6}  {'docstring':>9}  {'total':>6}")
    for name, code, docs, total in rows:
        print(f"{name:<{width}}  {code:>6,}  {docs:>9,}  {total:>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
