"""Outside-in tracing of fundform's layers.

The tracer wraps public functions of each fundform module, and a few
class methods and named private helpers, by replacing module and class
attributes from benchmark code.  Every module attribute bound to a
wrapped function is replaced, so names re-imported into other modules
(``decompose`` inside ``spectral``, ``cli`` and ``verify``, ``partial``
inside ``decompose``) are traced as well.  Nothing in the program changes.

Each wrapped call records a span (name, start, end, parent span, call id)
in flat arrays kept in memory; ``write`` saves them when the run ends.  A
span's self time is its duration minus that of its direct child spans;
a layer's self time is the sum over its spans.  Work a wrapper does to
count (tree sizes, grid points) runs in a ``tracer.hook`` span of its own
so that it is not charged to a program layer.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import time
from array import array
from collections import Counter
from pathlib import Path

# Modules whose public functions are traced, by layer name.
LAYER_MODULES = ("parser", "emit", "algebra", "operators", "decompose",
                 "forms", "spectral", "manufactured", "verify")
# (module, attribute) pairs traced in addition to public module functions.
EXTRA_FUNCTIONS = (
    ("cli", "main"),
    ("decompose", "_pair_collapse"),
    ("verify", "_face_grid"),
)
# (module, class, method names): Poly add, mul and pow are ring.poly_ops.
METHODS = (
    ("ring", "Poly", ("__add__", "__radd__", "__mul__", "__rmul__", "__pow__")),
    ("algebra", "BilinearExpr", ("__init__",)),
    ("operators", "ScalarPDO", ("__post_init__",)),
    ("operators", "MatrixPDO", ("__post_init__",)),
    ("manufactured", "ManufacturedSolution", ("trace",)),
)
# Expression-tree node constructors: one call per node built, too fine to trace.
UNTRACED = {"manufactured.add", "manufactured.mul", "manufactured.power"}
REWRITE_STEPS = ("decompose.reduce_step", "decompose.exchange_step",
                 "decompose._pair_collapse", "decompose.brace_collapse")
HOOK = "tracer.hook"
EVALUATE = "manufactured.evaluate"


class _TracedExpr:
    """Stands in for a returned trace so that its top-level evaluate() is
    one span, without wrapping every node of the expression tree."""

    __slots__ = ("_expr", "_evaluate")

    def __init__(self, expr, evaluate) -> None:
        self._expr = expr
        self._evaluate = evaluate

    def evaluate(self, coords):
        return self._evaluate(self._expr, coords)


def tree_size(root) -> int:
    """Nodes of a dataclass expression tree, counting shared subtrees once
    per occurrence (the size of the tree the caller walks)."""
    memo: dict = {}
    fields_of: dict = {}

    def children(node):
        names = fields_of.get(type(node))
        if names is None:
            names = fields_of[type(node)] = [f.name for f in dataclasses.fields(node)]
        for name in names:
            value = getattr(node, name)
            if isinstance(value, tuple):
                yield from (v for v in value if dataclasses.is_dataclass(v))
            elif dataclasses.is_dataclass(value):
                yield value

    def size(node) -> int:
        key = id(node)
        if key not in memo:
            memo[key] = 1 + sum(size(child) for child in children(node))
        return memo[key]

    return size(root)


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: list = []
        self._ids: dict = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.call = array("l")
        self.stack: list = []
        self.call_id = -1
        self.counts = Counter()
        self.trace_keys: set = set()
        self._solutions: list = []
        self._patched: list = []

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, span_name: str, after=None):
        """Span-recording wrapper; after(args, result) runs in a hook span."""
        nid = self._name_id(span_name)
        hook_id = self._name_id(HOOK)
        names, starts, ends = self.name, self.start, self.end
        parents, calls, stack = self.parent, self.call, self.stack
        clock = time.perf_counter

        def open_span(name_id: int) -> int:
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            calls.append(self.call_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            return index

        def wrapper(*args, **kwargs):
            index = open_span(nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[index] = t0
                ends[index] = t1
            if after is not None:
                index = open_span(hook_id)
                t0 = clock()
                try:
                    result = after(args, result)
                finally:
                    ends[index] = clock()
                    starts[index] = t0
                    stack.pop()
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span_name)
        return wrapper

    def wrap_generator(self, fn, counter: str):
        """Generators get no span (their body runs in the consumer); the
        number of items they yield is counted."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[counter] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks --------------------------------------------------------------

    def _after_expr(self, args, result):
        self.counts["algebra.expr_terms"] += len(args[0].terms)
        return result

    def _after_trace(self, args, result):
        solution, field, deriv = args[0], args[1], tuple(args[2])
        self._solutions.append(solution)  # keeps id(solution) unique
        self.trace_keys.add((id(solution), field, deriv))
        self.counts["manufactured.trace.nodes"] += tree_size(result)
        return _TracedExpr(result, self._evaluate)

    def _after_face_grid(self, args, result):
        self.counts["verify.quadrature_points"] += int(result[1].size)
        return result

    def _after_boundary(self, args, result):
        key = "verify.max_relative_residual"
        self.counts[key] = max(self.counts[key], float(result.relative))
        return result

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(f"fundform.{name}")
                   for name in LAYER_MODULES + ("cli", "ring")}
        package = importlib.import_module("fundform")
        targets = []
        for layer in LAYER_MODULES:
            module = modules[layer]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__
                        and f"{layer}.{attr}" not in UNTRACED):
                    targets.append((layer, attr, obj))
        for layer, attr in EXTRA_FUNCTIONS:
            targets.append((layer, attr, getattr(modules[layer], attr)))
        self._evaluate = self.wrap(lambda expr, coords: expr.evaluate(coords),
                                   EVALUATE)
        after = {
            "verify._face_grid": self._after_face_grid,
            "verify.boundary_residual": self._after_boundary,
        }
        replacements = {}
        for layer, attr, obj in targets:
            name = f"{layer}.{attr}"
            if inspect.isgeneratorfunction(obj):
                replacements[obj] = self.wrap_generator(obj, name + ".items")
            else:
                replacements[obj] = self.wrap(obj, name, after.get(name))
        scopes = list(modules.values()) + [package]
        scopes += [importlib.import_module("fundform.catalog")]
        for scope in scopes:
            for attr, obj in list(vars(scope).items()):
                if inspect.isfunction(obj) and obj in replacements:
                    self._patch(scope, attr, replacements[obj])
        method_after = {
            "algebra.BilinearExpr.__init__": self._after_expr,
            "manufactured.ManufacturedSolution.trace": self._after_trace,
        }
        for layer, cls_name, methods in METHODS:
            cls = getattr(modules[layer], cls_name)
            wrapped = {}
            for method in methods:
                original = cls.__dict__[method]
                name = f"{layer}.{cls_name}.{method}"
                if original not in wrapped:
                    wrapped[original] = self.wrap(original, name,
                                                  method_after.get(name))
                self._patch(cls, method, wrapped[original])

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)
                              if not isinstance(owner, type) else owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- analysis -----------------------------------------------------------

    def span_count(self) -> int:
        return len(self.start)

    def self_times(self) -> Counter:
        """Self time per span name: span durations minus their direct
        children's."""
        child_time = Counter()
        totals = Counter()
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        for i in range(len(starts)):
            if parents[i] >= 0:
                child_time[parents[i]] += ends[i] - starts[i]
        for i in range(len(starts)):
            totals[self.names[names[i]]] += ends[i] - starts[i] - child_time[i]
        return totals

    def inclusive_times(self) -> Counter:
        """Time inside each layer, nested calls within the same layer
        counted once: the sum of durations of spans that have no ancestor
        span in their own layer."""
        layers = [name.split(".")[0] for name in self.names]
        bits = {layer: 1 << i for i, layer in enumerate(sorted(set(layers)))}
        above = array("q")  # bitmask of layers on the path to each span
        totals = Counter()
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        for i in range(len(starts)):
            parent = parents[i]
            mask = 0 if parent < 0 else above[parent] | bits[layers[names[parent]]]
            above.append(mask)
            layer = layers[names[i]]
            if not mask & bits[layer]:
                totals[layer] += ends[i] - starts[i]
        return totals

    def call_counts(self, first: int = 0, last: int | None = None) -> Counter:
        counts = Counter()
        for i in range(first, len(self.name) if last is None else last):
            counts[self.names[self.name[i]]] += 1
        return counts

    def write(self, path: Path) -> None:
        """Spans as numpy arrays (``numpy.load``): names[name[i]] is span
        i's name; start and end are perf_counter seconds; parent is a span
        index or -1; call is the index of the workload call."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), name=np.array(self.name),
                 start=np.array(self.start), end=np.array(self.end),
                 parent=np.array(self.parent), call=np.array(self.call))
