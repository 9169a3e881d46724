"""Package hygiene: every top-level definition in ``src/rsp7`` has a user.

A function, class or module-level constant counts as used when it is
exported in ``rsp7.__all__``, read somewhere in ``src/`` other than its
own definition, or named by the benchmark harness in ``bench/*.py``
(which wraps library attributes by name).  A field of a dataclass counts
as used when some code in ``src/``, ``tests/`` or ``bench/*.py`` reads it
as an attribute.  That guard matches field names, not owners: a read of
another class's field of the same name also counts.  A definition with
none of these users is dead code and should be deleted.  The export list
itself must name every public name ``rsp7/__init__.py`` imports.
"""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

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


def test_every_dataclass_field_is_read():
    paths = [*SRC.glob("*.py"), *TESTS.glob("*.py"), *BENCH.glob("*.py")]
    read = {
        node.attr
        for path in paths
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        f"{path.stem}.{cls}.{name}"
        for path in sorted(SRC.glob("*.py"))
        for cls, name in _dataclass_fields(ast.parse(path.read_text()))
        if name not in read
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
