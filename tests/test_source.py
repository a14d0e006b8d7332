import ast
import os
import subprocess
import sys
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


def test_no_module_imports_numpy():
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] == "numpy"]
    assert SOURCES and not found


ENGINE_MODULES = {"ring", "algebra", "operators", "parser", "decompose",
                  "forms", "spectral", "manufactured"}
FRONT_END_MODULES = {"catalog", "verify", "emit", "cli"}


def test_engine_modules_do_not_import_front_end_modules():
    found = []
    for path in SOURCES:
        if path.stem not in ENGINE_MODULES:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name.removeprefix("fundform.") for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                module = (node.module or "").removeprefix("fundform").lstrip(".")
                names = [module] if module else [alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] in FRONT_END_MODULES]
    assert ENGINE_MODULES <= {path.stem for path in SOURCES} and not found


NUMPY_BLOCKED = """
import sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from fundform.cli import main
codes = [main(["verify", "--case", "stokes"]),
         main(["decompose", "--op", "axes x,t; Dt - Dx^2"])]
sys.exit(max(codes))
"""


def test_cli_runs_with_numpy_blocked():
    src = str(Path(fundform.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", NUMPY_BLOCKED], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert '"passed": true' in proc.stdout and '"verified": true' in proc.stdout


# The benchmark's tracer reads these three as dataclasses: it wraps the
# operators' __post_init__ and walks ExpPoly trees with dataclasses.fields.
DATACLASS_MODULES = {"operators", "manufactured"}
DATACLASS_RECORDS = {"ScalarPDO", "MatrixPDO", "ExpPoly"}


def _is_dataclass_decorator(node) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    return (isinstance(target, ast.Name) and target.id == "dataclass"
            or isinstance(target, ast.Attribute) and target.attr == "dataclass")


def test_only_the_traced_records_are_dataclasses():
    importers, decorated = set(), set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                names = []
            if any(name.split(".")[0] == "dataclasses" for name in names):
                importers.add(path.stem)
            if isinstance(node, ast.ClassDef) and any(
                    map(_is_dataclass_decorator, node.decorator_list)):
                decorated.add(node.name)
    assert importers == DATACLASS_MODULES
    assert decorated == DATACLASS_RECORDS
