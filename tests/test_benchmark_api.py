"""The names of summa that the benchmark reads must stay.

``perfbench`` times each per-layer metric ``<module>.<function>.<self_s|
calls|elements>`` in ``BENCHMARK.json`` from a span that its tracer wraps
around every function a module lists in ``__all__``, and its scripts
import some names of summa directly.  A change that drops or hides one of
them breaks the benchmark without failing any other test.  A public
function of a traced module that nothing but tests calls is refused too,
and so is a private definition of summa that nothing in it refers to.
"""

import ast
import functools
import importlib
import inspect
import json
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

# what perfbench's scripts import today; the parse below must find them all
IMPORTED = {
    ("experiment", "run"), ("experiment", "builtin_family"),
    ("experiment", "ExperimentConfig"), ("sequences", "materialize"),
    ("sequences", "SequenceSpec"), ("sequences", "RealSequence"),
    ("cesaro", "cesaro_t"), ("checker", "dyadic_checkpoints"),
    ("oracle", "rational_cesaro_coefficients"), ("oracle", "_weights_cached"),
}


def benchmark_names():
    """(module, name) pairs: the functions of the per-layer metrics, and
    every name a perfbench script imports from a summa module."""
    names = set()
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    for metric in bench["per_layer"]:
        parts = metric["name"].split(".")
        if len(parts) == 3 and parts[2] in ("self_s", "calls", "elements"):
            names.add((parts[0], parts[1]))
    for path in sorted((REPO / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.startswith("summa.")):
                module = node.module.split(".", 1)[1]
                names.update((module, alias.name) for alias in node.names)
    return names


def test_benchmark_names_exist_and_public_functions_are_exported():
    names = benchmark_names()
    assert IMPORTED <= names
    assert ("accumulation", "compensated_cumsum") in names
    for module_name, name in sorted(names):
        module = importlib.import_module(f"summa.{module_name}")
        assert hasattr(module, name), f"summa.{module_name}.{name} is gone"
        value = getattr(module, name)
        if inspect.isfunction(value) and not name.startswith("_"):
            assert name in module.__all__, (
                f"summa.{module_name}.{name} is not in __all__")


def traced_modules():
    """``MODULES`` of perfbench/tracing.py, read from its source."""
    tree = ast.parse((REPO / "perfbench" / "tracing.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets
                     if isinstance(t, ast.Name)] == ["MODULES"]):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no MODULES")


def test_traced_modules_export_only_names_they_define():
    # the tracer getattr()s every name in each traced module's __all__, so
    # a stale entry breaks every traced benchmark pass
    modules = traced_modules()
    assert "accumulation" in modules and "checker" in modules
    for module_name in modules:
        module = importlib.import_module(f"summa.{module_name}")
        missing = [name for name in module.__all__
                   if not hasattr(module, name)]
        assert not missing, f"summa.{module_name}.__all__ names {missing}"


def references_in_src():
    """(name, enclosing) for every name that code in src/summa refers to
    (an ast Name or Attribute), enclosing the (module, qualified name)
    pairs of the function definitions it sits in, a method's as
    ``Class.method``; a docstring or an __all__ entry is a string, not a
    reference."""
    refs = []

    def visit(node, module, scope, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = f"{scope}{node.name}"
            if not isinstance(node, ast.ClassDef):
                enclosing = enclosing | {(module, scope)}
            scope += "."
        if isinstance(node, ast.Name):
            refs.append((node.id, enclosing))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, enclosing))
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope, enclosing)

    for path in sorted((REPO / "src" / "summa").glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "", frozenset())
    return refs


def public_api(module):
    """The qualified names of a module's public functions, and of the
    public methods and properties of its public classes, defined there."""
    names = []
    for name in module.__all__:
        value = getattr(module, name)
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            names.append(name)
        elif inspect.isclass(value):
            names += [f"{name}.{attr}" for attr, member in vars(value).items()
                      if not attr.startswith("_") and (
                          inspect.isfunction(member) or isinstance(
                              member, (property, functools.cached_property,
                                       classmethod, staticmethod)))]
    return names


def test_traced_public_functions_have_callers_outside_tests():
    # a public function or method that only tests call is a second entry
    # point beside the one the system runs: it goes, or something calls
    # it.  A reference counts from outside the definition's own body, and
    # not from a function that is itself uncalled
    refs = references_in_src()
    bench_text = "\n".join(
        path.read_text() for path in [
            *sorted((REPO / "perfbench").glob("*.py")),
            REPO / "perfbench" / "catalog.json", REPO / "BENCHMARK.json"])
    public = []
    for module_name in traced_modules():
        module = importlib.import_module(f"summa.{module_name}")
        public += [(module_name, name) for name in public_api(module)
                   if not re.search(rf"\b{name.split('.')[-1]}\b",
                                    bench_text)]
    uncalled = set(public)
    while True:
        still = {(module, name) for module, name in uncalled
                 if not any(ref == name.split(".")[-1]
                            and (module, name) not in enclosing
                            and not enclosing & uncalled
                            for ref, enclosing in refs)}
        if still == uncalled:
            break
        uncalled = still
    assert not uncalled, f"only tests call {sorted(uncalled)}"


def references_by_definition():
    """(module, top, name) for every name that code in src/summa refers to
    (an ast Name or Attribute, annotations included), top the name of the
    module-level function or class it sits in (None at module level)."""
    refs = []
    for path in sorted((REPO / "src" / "summa").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            top = (node.name if isinstance(node, (
                ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                else None)
            for child in ast.walk(node):
                if isinstance(child, ast.Name):
                    refs.append((path.stem, top, child.id))
                elif isinstance(child, ast.Attribute):
                    refs.append((path.stem, top, child.attr))
    return refs


def test_traced_public_classes_are_used_by_public_code():
    # a public class that only private code builds or reads is a public
    # name with no public use: it goes, or the private code returns plain
    # values.  A use counts from a public function or class of src other
    # than the class itself (an annotation is a use), or from perfbench
    refs = references_by_definition()
    bench_text = "\n".join(
        path.read_text() for path in [
            *sorted((REPO / "perfbench").glob("*.py")),
            REPO / "perfbench" / "catalog.json", REPO / "BENCHMARK.json"])
    classes, unused = 0, []
    for module_name in traced_modules():
        module = importlib.import_module(f"summa.{module_name}")
        for name in module.__all__:
            value = getattr(module, name)
            if not (inspect.isclass(value)
                    and value.__module__ == module.__name__):
                continue
            classes += 1
            if not (re.search(rf"\b{name}\b", bench_text) or any(
                    ref == name and top is not None
                    and not top.startswith("_")
                    and (mod, top) != (module_name, name)
                    for mod, top, ref in refs)):
                unused.append(f"{module_name}.{name}")
    assert classes >= 5  # the scan finds them
    assert not unused, f"no public code uses {unused}"


def private_definitions():
    """(module, name) of every top-level private function, class and
    assigned name in src/summa, dunder names aside."""
    defs = set()
    for path in sorted((REPO / "src" / "summa").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign):
                names = [getattr(node.target, "id", "")]
            else:
                continue
            defs.update((path.stem, name) for name in names
                        if name.startswith("_") and not name.startswith("__"))
    return defs


def test_private_definitions_are_referenced_in_src():
    # a private helper that its last user left behind is dead code.  As
    # for the public functions above, a reference counts from outside the
    # definition's own body (a class's methods included), and not from a
    # definition that is itself unreferenced
    refs = references_in_src()

    def inside(enclosing, definition):
        module, name = definition
        return any(m == module and (q == name or q.startswith(f"{name}."))
                   for m, q in enclosing)

    unreferenced = private_definitions()
    assert ("checker", "_Context") in unreferenced  # the parse finds them
    while True:
        still = {(module, name) for module, name in unreferenced
                 if not any(ref == name and not any(
                     inside(enclosing, d) for d in unreferenced)
                     for ref, enclosing in refs)}
        if still == unreferenced:
            break
        unreferenced = still
    assert not unreferenced, f"nothing in src refers to {sorted(unreferenced)}"
