"""Count the lines of code and of docstrings in ``src/soplan``.

    python tools/count_lines.py

Run it from the root of a checkout: it reads that checkout's
``src/soplan``.  A code line holds a token that is no comment; the
lines of module, class and function docstrings (found by the AST) count
as docstring lines only.  Prints one line::

    src/soplan: N lines of code, M lines of docstrings
"""

from __future__ import annotations

import ast
import io
import pathlib
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(text: str) -> tuple:
    """``(code lines, docstring lines)`` of one module's source."""
    doc = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, DOCUMENTED):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                doc.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - doc), len(doc)


def main() -> None:
    paths = sorted(pathlib.Path("src/soplan").glob("*.py"))
    if not paths:
        raise SystemExit("no src/soplan/*.py here: run from the root of a checkout")
    code = docs = 0
    for path in paths:
        lines, doc = count(path.read_text())
        code += lines
        docs += doc
    print(f"src/soplan: {code} lines of code, {docs} lines of docstrings")


if __name__ == "__main__":
    main()
