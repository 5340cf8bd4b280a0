"""Count the lines of each module of src/rolerank: code, prose and blank.

Prose is docstrings and comment-only lines; blank lines inside a
docstring count as prose. The ``lines`` column is their sum, which is
``wc -l`` for a module that ends in a newline. Run from the repository
root:

    python tools/src_lines.py
"""

import ast
import glob


def counts(path: str) -> list[int]:
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
    for path in sorted(glob.glob("src/rolerank/*.py")):
        module = counts(path)
        totals = [t + c for t, c in zip(totals, module)]
        print(*(f"{c:6d}" for c in [sum(module), *module]), "", path)
    print(*(f"{t:6d}" for t in [sum(totals), *totals]), "", "total")


if __name__ == "__main__":
    main()
