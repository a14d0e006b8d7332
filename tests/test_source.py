import ast
from pathlib import Path

import fundform

SOURCES = sorted(Path(fundform.__file__).parent.glob("*.py"))


def test_no_function_local_imports():
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    f"{path.name}:{inner.lineno}"
                    for inner in ast.walk(node)
                    if isinstance(inner, (ast.Import, ast.ImportFrom))
                ]
    assert SOURCES and not found
