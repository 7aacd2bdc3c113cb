"""Count the code lines of the package: the non-blank lines of
``src/meso_spectra/**/*.py`` less comment-only lines, docstrings (the
leading string of a module, class or function) and ``import`` statements.

    python3 tools/code_lines.py
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "meso_spectra"
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    skipped = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None:
            node = node.body[0]
        elif not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        skipped.update(range(node.lineno, node.end_lineno + 1))
    return sum(1 for number, line in enumerate(source.splitlines(), start=1)
               if line.strip() and not line.lstrip().startswith("#")
               and number not in skipped)


if __name__ == "__main__":
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.relative_to(SRC.parent)}")
    print(f"{total:6d}  total")
