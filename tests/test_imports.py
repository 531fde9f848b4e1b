"""Import hygiene of the package, read from its source with `ast`: every
import sits at module level, every name a module imports is read by it,
the package's modules import each other without a cycle, and every
module-level function and class, every non-dunder method of such a
class and every field of such a dataclass is used by other library
code."""

import ast
from pathlib import Path

import daggerlab

PACKAGE = Path(daggerlab.__file__).parent


def _sources():
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def _function_imports(source):
    """Line numbers of the imports inside a function body."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lines += [inner.lineno for inner in ast.walk(node)
                      if isinstance(inner, (ast.Import, ast.ImportFrom))]
    return sorted(set(lines))


def _package_imports(source, modules):
    """The package modules a module's source imports, relatively
    (`from .x import y`, `from . import x`) or by absolute name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                names = [node.module] if node.module else [a.name for a in node.names]
            elif node.module and node.module.startswith("daggerlab"):
                names = node.module.split(".")[1:2] or [a.name for a in node.names]
            else:
                continue
        elif isinstance(node, ast.Import):
            names = [a.name.split(".")[1] for a in node.names
                     if a.name.startswith("daggerlab.")]
        else:
            continue
        found |= {name.split(".")[0] for name in names} & modules
    return found


def _cycle(graph):
    """One import cycle as a list of modules, or None."""
    state = {}

    def visit(node, path):
        state[node] = "open"
        for nxt in sorted(graph[node]):
            if state.get(nxt) == "open":
                return path[path.index(nxt):] + [nxt]
            if nxt not in state:
                found = visit(nxt, path + [nxt])
                if found:
                    return found
        state[node] = "done"
        return None

    for node in sorted(graph):
        if node not in state:
            found = visit(node, [node])
            if found:
                return found
    return None


def _graph(sources):
    modules = set(sources)
    return {name: _package_imports(src, modules) for name, src in sources.items()}


# definitions that only the tests use, kept on purpose
TEST_ONLY = [
    # the oracle of the fixed acceptance gate `test_strict_sqrt_over_c`
    "axioms.polynomial_fit_residual",
    "axioms.subset_diagram",
    "matcat.is_projection",
    "sampling.random_coordinate_projection",
]


# imported for the side effect of loading the module, never read
SIDE_EFFECT_IMPORTS = ["sampling.numpy.random"]


def _unused_imports(sources):
    """The names that a module's module-level imports bind and that it
    never reads, as "module.name" with the name as imported; a name
    listed in the module's `__all__` is read."""
    unused = []
    for module, src in sorted(sources.items()):
        tree = ast.parse(src)
        bound = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound.update((a.asname or a.name.split(".")[0], a.asname or a.name)
                             for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound.update((a.asname or a.name, a.asname or a.name) for a in node.names)
        read = {inner.id for inner in ast.walk(tree)
                if isinstance(inner, ast.Name) and isinstance(inner.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and "__all__" in [ast.unparse(t) for t in node.targets]:
                read |= set(ast.literal_eval(node.value))
        unused += [f"{module}.{shown}" for name, shown in bound.items() if name not in read]
    return unused


def _references(node, skip=None):
    """The names a statement refers to outside the subtree `skip`: bare
    names and attribute names."""
    found, stack = set(), [node]
    while stack:
        inner = stack.pop()
        if inner is skip:
            continue
        if isinstance(inner, ast.Name):
            found.add(inner.id)
        elif isinstance(inner, ast.Attribute):
            found.add(inner.attr)
        stack.extend(ast.iter_child_nodes(inner))
    return found


def _package_bindings(tree, modules):
    """The names that a module's module-level imports bind to the
    package: a module, as (module, None), or a module's member, as
    (module, member)."""
    bound = {}
    for node in tree.body:
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1:
            source = node.module
        elif node.module and node.module.split(".")[0] == "daggerlab":
            source = ".".join(node.module.split(".")[1:]) or None
        else:
            continue
        for a in node.names:
            if source is None and a.name in modules:
                bound[a.asname or a.name] = (a.name, None)
            elif source in modules:
                bound[a.asname or a.name] = (source, a.name)
    return bound


def _qualified_uses(node, module, bindings):
    """The module-level names, as (owner module, name), that a statement
    of `module` reads: a bare name of its own module, a name imported
    from another module, or `m.name` on an imported module m.  A name
    imported through a module that imports it in turn resolves to its
    owner."""
    def owner(mod, name):
        target = bindings[mod].get(name)
        return owner(*target) if target and target[1] is not None else (mod, name)

    found = set()
    for inner in ast.walk(node):
        if isinstance(inner, ast.Name) and isinstance(inner.ctx, ast.Load):
            target = bindings[module].get(inner.id)
            if target is None:
                found.add((module, inner.id))
            elif target[1] is not None:
                found.add(owner(*target))
        elif isinstance(inner, ast.Attribute) and isinstance(inner.value, ast.Name):
            target = bindings[module].get(inner.value.id)
            if target is not None and target[1] is None:
                found.add(owner(target[0], inner.attr))
    return found


def _dataclass_fields(node):
    """The annotated field names of a class decorated with `dataclass`."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    if not any(ast.unparse(d).split(".")[-1] == "dataclass" for d in decorators):
        return []
    return [stmt.target.id for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _unused_definitions(sources):
    """The module-level functions and classes, as "module.name", that no
    statement of the package uses outside their own definition, by
    qualified name; the non-dunder methods and properties of those
    classes, as "module.Class.name", that no statement refers to by name
    outside their own definition; and the fields of those classes that
    are dataclasses, as "module.Class.field", that no attribute load of
    the package reads.  An import alone is no use."""
    trees = {module: ast.parse(src) for module, src in sorted(sources.items())}
    bindings = {module: _package_bindings(tree, set(trees)) for module, tree in trees.items()}
    statements = [(module, node) for module, tree in trees.items() for node in tree.body]
    uses = [(node, _qualified_uses(node, module, bindings)) for module, node in statements]
    refs = [(node, _references(node)) for _, node in statements]
    loaded = {inner.attr for tree in trees.values() for inner in ast.walk(tree)
              if isinstance(inner, ast.Attribute) and isinstance(inner.ctx, ast.Load)}
    unused = []
    for module, node in statements:
        if not isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
            continue
        if not any((module, node.name) in used for other, used in uses if other is not node):
            unused.append(f"{module}.{node.name}")
        if isinstance(node, ast.ClassDef):
            unused += [f"{module}.{node.name}.{method.name}" for method in node.body
                       if isinstance(method, _FUNCTIONS) and not method.name.startswith("__")
                       and method.name not in _references(node, skip=method)
                       and not any(method.name in names for other, names in refs if other is not node)]
            unused += [f"{module}.{node.name}.{name}" for name in _dataclass_fields(node)
                       if name not in loaded]
    return unused


def test_no_import_inside_a_function():
    deferred = {name: lines for name, src in _sources().items()
                if (lines := _function_imports(src))}
    assert deferred == {}


def test_every_imported_name_is_read():
    assert _unused_imports(_sources()) == SIDE_EFFECT_IMPORTS


def test_every_definition_is_used_by_library_code():
    assert _unused_definitions(_sources()) == TEST_ONLY


def test_package_modules_import_without_a_cycle():
    graph = _graph(_sources())
    assert graph["matcat"] == {"errors", "scalars"}
    # the reconstruction library computes; the campaign checks judge
    assert "reports" not in graph["reconstruct"]
    assert _cycle(graph) is None


def _imports_before_the_blas_pin(source):
    """Line numbers of the top-level imports, other than `import os`, that
    precede `os.environ.setdefault("OPENBLAS_NUM_THREADS", ...)`, or None
    if the module makes no such call."""
    tree = ast.parse(source)
    pins = [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "os.environ.setdefault"
            and ast.literal_eval(node.args[0]) == "OPENBLAS_NUM_THREADS"]
    if not pins:
        return None
    return [node.lineno for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom)) and node.lineno < pins[0]
            and ast.unparse(node) != "import os"]


def test_blas_thread_pin_precedes_every_import_but_os():
    # OpenBLAS reads the variable once, when the first import of numpy loads it
    assert _imports_before_the_blas_pin(_sources()["__init__"]) == []


def test_the_scan_sees_deferred_imports_and_cycles():
    sources = {
        "a": "from .b import f\n",
        "b": "import numpy\n\ndef f():\n    from . import c\n",
        "c": "from daggerlab.a import g\nimport daggerlab.b\n",
    }
    assert _function_imports(sources["b"]) == [4]
    graph = _graph(sources)
    assert graph == {"a": {"b"}, "b": {"c"}, "c": {"a", "b"}}
    assert _cycle(graph) == ["a", "b", "c", "a"]
    assert _cycle({"a": {"b"}, "b": set()}) is None
    pin = 'os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")\n'
    assert _imports_before_the_blas_pin("import os\n" + pin + "from .a import f\n") == []
    assert _imports_before_the_blas_pin("import os\nimport numpy\n" + pin) == [2]
    assert _imports_before_the_blas_pin("import os\n") is None


def test_the_scan_sees_unused_definitions():
    sources = {
        "a": ("from dataclasses import dataclass\n\n"
              "def f():\n    return f()\n\n"  # only itself
              "def g():\n    return _helper()\n\n"  # only imported
              "def _helper():\n    return 1\n\n"  # called by g, itself unused
              "class C:\n    pass\n\n"  # an attribute of b
              "class D:\n    def m(self):\n        return D\n\n"  # only itself
              "class E:\n"
              "    def __init__(self):\n        self.n()\n"  # a dunder is never reported
              "    def n(self):\n        return self.n()\n"  # called by __init__
              "    @property\n    def p(self):\n        return self.p\n"  # only itself
              "    def q(self):\n        pass\n\n"  # no one calls it
              "def zero():\n    return 0\n\n"  # only its namesake F.zero is used
              "class F:\n    def zero(self):\n        return 0\n\n"
              "@dataclass(frozen=True)\nclass P:\n    x: int\n    y: int\n\n"  # y is never read
              "def s():\n    return 1\n"),  # used by c through b's import
        "b": ("from . import a\nfrom .a import g, s\n\n"
              "def h():\n    return a.C(), a.E(), a.F().zero(), a.P(1, 2).x\n\n"  # no one calls it
              "@h\ndef k():\n    pass\n"),  # unused, but uses h as decorator
        "c": "from .b import s as t\n\nu = t()\n",
    }
    assert _unused_definitions(sources) == ["a.f", "a.g", "a.D", "a.D.m", "a.E.p", "a.E.q",
                                            "a.zero", "a.P.y", "b.k"]


def test_the_scan_sees_unused_imports():
    sources = {
        "a": ("from __future__ import annotations\n"  # a compiler directive
              "import os\nimport numpy as np\nimport numpy.linalg\n"
              "from .b import f, g as h\nfrom . import c\n\n"
              "__all__ = ['f']\n\n"  # a re-export is read
              "def k(x: np.ndarray) -> c.T:\n    return h(x)\n"),  # annotations are read
        "b": "import json\n\nx = json.dumps\njson = None\n",
    }
    assert _unused_imports(sources) == ["a.os", "a.numpy.linalg"]
