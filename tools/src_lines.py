"""Count the lines of each module of src/rolerank: code, prose and blank.

Prose is docstrings and comment-only lines; blank lines inside a
docstring count as prose. The ``lines`` column is their sum, which is
``wc -l`` for a module that ends in a newline. It finds src/rolerank
from its own path, so it prints the same table from any directory:

    python tools/src_lines.py
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def counts(path: Path) -> list[int]:
    """[code, prose, blank] lines of one module."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    lines = text.splitlines()
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    prose = sum(i in docs or line.lstrip().startswith("#") for i, line in enumerate(lines, 1))
    blank = sum(i not in docs and not line.strip() for i, line in enumerate(lines, 1))
    return [len(lines) - prose - blank, prose, blank]


def main() -> None:
    print(f"{'lines':>6} {'code':>6} {'prose':>6} {'blank':>6}  (prose: docstrings and comment-only lines)")
    totals = [0, 0, 0]
    for path in sorted((ROOT / "src" / "rolerank").glob("*.py")):
        module = counts(path)
        totals = [t + c for t, c in zip(totals, module)]
        print(*(f"{c:6d}" for c in [sum(module), *module]), "", path.relative_to(ROOT).as_posix())
    print(*(f"{t:6d}" for t in [sum(totals), *totals]), "", "total")


if __name__ == "__main__":
    main()
