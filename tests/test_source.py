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
