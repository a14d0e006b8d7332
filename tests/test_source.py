import ast
import os
import subprocess
import symtable
import sys
from pathlib import Path

import fundform

SOURCES = sorted(Path(fundform.__file__).parent.glob("*.py"))
README = Path(__file__).resolve().parents[1] / "README.md"


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


def test_front_end_modules_import_no_engine_privates():
    # the front end reaches the engine through its public names, imported
    # or read off an imported engine module; engine modules may share
    # privates among themselves
    found = []
    for path in SOURCES:
        if path.stem not in FRONT_END_MODULES:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        engines = set()  # globals that name an engine module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = (node.module or "").removeprefix("fundform").lstrip(".")
                if module in ENGINE_MODULES:
                    found += [f"{path.name}:{node.lineno} {module}.{alias.name}"
                              for alias in node.names if alias.name.startswith("_")]
                elif not module:
                    engines |= {alias.asname or alias.name for alias in node.names
                                if alias.name in ENGINE_MODULES}
        found += [f"{path.name}:{node.lineno} {node.value.id}.{node.attr}"
                  for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name) and node.value.id in engines
                  and node.attr.startswith("_")]
    assert FRONT_END_MODULES <= {path.stem for path in SOURCES} and not found


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


def quickstart() -> str:
    """The Python block under the README's "Library quickstart" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library quickstart\n")[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_readme_quickstart_prints_one(capsys):
    exec(compile(quickstart(), "README quickstart", "exec"), {})
    assert capsys.readouterr().out == "1\n"


# The scope node types that open a symbol table, and that table's name.
_SCOPE_NAMES = {ast.Lambda: "lambda", ast.ListComp: "listcomp",
                ast.SetComp: "setcomp", ast.DictComp: "dictcomp",
                ast.GeneratorExp: "genexpr"}


class _Reads(ast.NodeVisitor):
    """Each name and attribute read in one module, resolved as far as the
    source allows: a name that no enclosing function, lambda or
    comprehension binds (``symtable`` says which do), nor the class whose
    body reads it, is a module global; an attribute of a global that names
    a module is that module's name; any other attribute can be any method
    of its spelling."""

    def __init__(self, source: str, filename: str, modules: dict) -> None:
        self.scopes = [symtable.symtable(source, filename, "exec")]
        self.used: set = set()  # ids of the child tables already entered
        self.modules = modules  # global name -> the module it names
        self.globals: list = []  # (global name, line)
        self.attributes: list = []  # (attribute, line)
        self.module_names: list = []  # (module, name, line)

    def _local(self, name: str) -> bool:
        for depth, table in enumerate(reversed(self.scopes)):
            if table.get_type() == "module":
                return False
            if table.get_type() == "class" and depth:
                continue  # a class body does not enclose its methods
            try:
                symbol = table.lookup(name)
            except KeyError:
                continue
            if symbol.is_declared_global():
                return False
            if symbol.is_local():
                return True
        return False

    def _inside(self, node, name: str, body: list, outer: list) -> None:
        """Visit `outer` in the current scope and `body` in the child table
        that `node` opens; a comprehension that the interpreter inlines
        opens none."""
        for child in outer:
            self.visit(child)
        table = next((t for t in self.scopes[-1].get_children()
                      if id(t) not in self.used and t.get_name() == name
                      and t.get_lineno() == node.lineno), None)
        if table is not None:
            self.used.add(id(table))
            self.scopes.append(table)
        for child in body:
            self.visit(child)
        if table is not None:
            self.scopes.pop()

    def visit_FunctionDef(self, node) -> None:
        args = node.args
        annotations = [a.annotation for a in (*args.posonlyargs, *args.args,
                                              *args.kwonlyargs, args.vararg,
                                              args.kwarg) if a and a.annotation]
        outer = [*node.decorator_list, *args.defaults,
                 *filter(None, args.kw_defaults), *annotations,
                 *filter(None, [node.returns])]
        self._inside(node, node.name, node.body, outer)

    def visit_ClassDef(self, node) -> None:
        outer = [*node.decorator_list, *node.bases, *node.keywords]
        self._inside(node, node.name, node.body, outer)

    def visit_Lambda(self, node) -> None:
        outer = [*node.args.defaults, *filter(None, node.args.kw_defaults)]
        self._inside(node, "lambda", [node.body], outer)

    def _comprehension(self, node) -> None:
        first, *rest = node.generators
        body = [first.target, *first.ifs, *rest]
        body += [node.key, node.value] if isinstance(node, ast.DictComp) else [node.elt]
        self._inside(node, _SCOPE_NAMES[type(node)], body, [first.iter])

    visit_ListComp = visit_SetComp = visit_DictComp = _comprehension
    visit_GeneratorExp = _comprehension

    def visit_Name(self, node) -> None:
        if not self._local(node.id):
            self.globals.append((node.id, node.lineno))

    def visit_Attribute(self, node) -> None:
        value = node.value
        if (isinstance(value, ast.Name) and value.id in self.modules
                and not self._local(value.id)):
            self.module_names.append((self.modules[value.id], node.attr, node.lineno))
        else:
            self.attributes.append((node.attr, node.lineno))
        self.visit(value)


def _imports(tree) -> tuple:
    """The module's `from .m import name` bindings, global -> (m, name),
    and its globals that name a module, global -> m."""
    names, modules = {}, {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module:
                    names[local] = (node.module, alias.name)
                else:
                    modules[local] = alias.name
    return names, modules


def _references(tree) -> list:
    """(identifier, line) of each name and attribute read in the tree."""
    return [(node.id if isinstance(node, ast.Name) else node.attr, node.lineno)
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))]


def _public_definitions(tree):
    """('', node) for each public module-level function and class, and
    ('Class.', node) for each public method."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds) and not node.name.startswith("_"):
            yield "", node
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.", method) for method in node.body
                        if isinstance(method, kinds[:2])
                        and not method.name.startswith("_"))


# Public names that only the benchmark harness reaches:
# perfbench/tracer.py wraps ManufacturedSolution.trace by name and counts
# the nodes of the traces it returns.
HARNESS_NAMES = {"manufactured:ManufacturedSolution.trace"}


def test_every_public_name_is_reached():
    """Each public name under src/fundform is read somewhere in src/ besides
    its own definition and __init__.py, or the README quickstart names it:
    code that only the tests call belongs in tests/oracles.py.  A read
    counts only where it resolves to the name: a module function through
    a global of its module or of one that imports it, or an attribute of
    its module; a method through an attribute of its spelling on anything
    but a module."""
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in SOURCES if path.name != "__init__.py"}
    trees = {module: ast.parse(source) for module, source in sources.items()}
    imported = {module: _imports(tree) for module, tree in trees.items()}

    def home(module: str, name: str) -> tuple:
        """The module that defines what `name` means in `module`."""
        while name in imported[module][0]:
            module, name = imported[module][0][name]
        return module, name

    functions: dict = {}  # (module, name) -> [(module, line)]
    methods: dict = {}  # spelling -> [(module, line)]
    for module, tree in trees.items():
        reads = _Reads(sources[module], module, imported[module][1])
        reads.visit(tree)
        for name, line in reads.globals:
            functions.setdefault(home(module, name), []).append((module, line))
        for target, name, line in reads.module_names:
            functions.setdefault(home(target, name), []).append((module, line))
        for name, line in reads.attributes:
            methods.setdefault(name, []).append((module, line))
    exempt = {name for name, _ in _references(ast.parse(quickstart()))}
    unreached = []
    for module, tree in trees.items():
        for owner, node in _public_definitions(tree):
            span = range(node.lineno, node.end_lineno + 1)
            uses = (methods.get(node.name, ()) if owner
                    else functions.get((module, node.name), ()))
            qualified = f"{module}:{owner}{node.name}"
            if (node.name not in exempt and qualified not in HARNESS_NAMES
                    and all(where == module and line in span for where, line in uses)):
                unreached.append(qualified)
    assert trees
    assert unreached == []
