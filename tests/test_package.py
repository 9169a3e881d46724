"""Package hygiene: every top-level definition in ``src/rsp7`` has a user.

A function, class or module-level constant counts as used when it is
exported in ``rsp7.__all__``, read somewhere in ``src/`` other than its
own definition, or named by the benchmark harness in ``bench/*.py``
(which wraps library attributes by name).  A field of a dataclass counts
as used when some code in ``src/``, ``tests/`` or ``bench/*.py`` reads it
as an attribute of its own class.  ``x.field`` is resolved to an owner
within its innermost function, from a parameter annotation of ``x`` or
an assignment of ``x`` from a call whose class or return annotation is
known; a read it cannot resolve counts for every owner of the name.  A
definition with none of these users is dead code and should be deleted.
The export list itself must name every public name ``rsp7/__init__.py``
imports.
"""

import ast
import dataclasses
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import rsp7

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rsp7"
BENCH = ROOT / "bench"
TESTS = ROOT / "tests"


def _definitions(tree):
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in names if not name.startswith("__")]


def _references(tree):
    """Reads of each name; an assignment's target is not a read."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
    return refs


def test_every_top_level_definition_has_a_caller():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    refs = Counter()
    for tree in trees.values():
        refs.update(_references(tree))
    bench_text = "\n".join(path.read_text() for path in sorted(BENCH.glob("*.py")))
    exported = set(rsp7.__all__)
    unused = [
        f"{module[:-3]}.{name}"
        for module, tree in trees.items()
        for name in _definitions(tree)
        if name not in exported
        and not refs[name]
        and not re.search(rf"\b{re.escape(name)}\b", bench_text)
    ]
    assert unused == []


def _dataclass_fields(tree):
    """(class, field) for each annotated field of a module-level ``@dataclass``."""
    for node in tree.body:
        decorators = [getattr(d, "func", d) for d in getattr(node, "decorator_list", ())]
        if any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield node.name, stmt.target.id


def _class_name(node):
    """The class a name, a dotted name or a string annotation names, else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _classes_made(trees):
    """Callable name -> the class its result has, for each class and each
    function whose definitions agree on one return annotation."""
    found = defaultdict(set)
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                found[node.name].add(node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found[node.name].add(_class_name(node.returns))
    return {name: classes.pop() for name, classes in found.items() if len(classes) == 1}


def _field_reads(tree, made):
    """(owner, field) of each attribute read; the owner is None when the
    binding of the read's name in its innermost function does not tell it."""
    scopes = defaultdict(list)  # innermost function or module -> [(node, parent)]

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = child if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                                ast.Lambda)) else scope
            scopes[inner].append((child, node))
            walk(child, inner)

    walk(tree, tree)
    for pairs in scopes.values():
        bound = defaultdict(set)
        for node, parent in pairs:
            if isinstance(node, ast.arg):
                bound[node.arg].add(_class_name(node.annotation))
            elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
                assigned = isinstance(parent, ast.Assign) and parent.targets == [node]
                call = parent.value if assigned and isinstance(parent.value, ast.Call) else None
                bound[node.id].add(call and made.get(_class_name(call.func)))
        for node, _ in pairs:
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                owners = bound.get(getattr(node.value, "id", None), {None})
                yield (next(iter(owners)) if len(owners) == 1 else None), node.attr


def test_every_dataclass_field_is_read():
    # this file's own ``ast`` reads, ``node.target`` among them, are not users
    paths = [*SRC.glob("*.py"), *TESTS.glob("*.py"), *BENCH.glob("*.py")]
    trees = [ast.parse(path.read_text()) for path in paths if path.name != "test_package.py"]
    made = _classes_made(trees)
    read = {pair for tree in trees for pair in _field_reads(tree, made)}
    unread = [
        f"{path.stem}.{cls}.{name}"
        for path in sorted(SRC.glob("*.py"))
        for cls, name in _dataclass_fields(ast.parse(path.read_text()))
        if (cls, name) not in read and (None, name) not in read
    ]
    assert unread == []


def test_exports_resolve_and_do_not_repeat():
    repeated = [name for name, n in Counter(rsp7.__all__).items() if n > 1]
    assert repeated == []
    assert [name for name in rsp7.__all__ if not hasattr(rsp7, name)] == []


def test_every_public_import_is_exported():
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    exported = set(rsp7.__all__)
    assert [name for name in imported if not name.startswith("_") and name not in exported] == []


def test_import_builds_no_cached_tables():
    # the channel, the recovery table and the CLI parser are built on first
    # use, so `import rsp7` does no engine work
    probe = (
        "import sys, rsp7, rsp7.cli\n"
        "for name, module in sorted(sys.modules.items()):\n"
        "    if name.startswith('rsp7'):\n"
        "        for attr, value in sorted(vars(module).items()):\n"
        "            if hasattr(value, 'cache_info'):\n"
        "                print(name, attr, value.cache_info().currsize)\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path}).stdout
    tables = [line.split() for line in out.splitlines()]
    assert ["rsp7.protocol", "table_report", "0"] in tables
    assert ["rsp7.cli", "build_parser", "0"] in tables
    assert [t for t in tables if t[2] != "0"] == []


def _arrays(value):
    """Every ndarray in a value, through tuples, lists, dicts and dataclasses."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _arrays(item)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        for f in dataclasses.fields(value):
            yield from _arrays(getattr(value, f.name))


def test_cached_builders_return_read_only_arrays():
    # every later call shares a cached table, so a writable one could corrupt them all
    modules = {info.name: importlib.import_module(f"rsp7.{info.name}")
               for info in pkgutil.iter_modules(rsp7.__path__)}
    builders = {
        f"{name}.{attr}": value
        for name, module in sorted(modules.items())
        for attr, value in sorted(vars(module).items())
        if hasattr(value, "cache_info") and not inspect.signature(value).parameters
    }
    assert {"channel.build_channel", "protocol.table_report", "noise._engine_tables",
            "cli.build_parser"} <= set(builders)
    writable = [name for name, build in builders.items()
                if any(a.flags.writeable for a in _arrays(build()))]
    assert writable == []


def test_readme_library_sketch_runs():
    # the one Python block of README.md, so the docs follow the library's API
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
