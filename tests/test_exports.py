"""The package's export list names only what the package defines, and no
module imports a name it does not read."""
import ast
import os
import pathlib
import subprocess
import sys

import bivas


def test_every_exported_name_resolves():
    assert len(set(bivas.__all__)) == len(bivas.__all__)
    for name in bivas.__all__:
        assert getattr(bivas, name, None) is not None, name


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from bivas import *", namespace)
    assert set(bivas.__all__) <= set(namespace)


def _unread_imports(path):
    """Names a module imports and never reads, besides ``from __future__``
    and what its ``__all__`` re-exports."""
    tree = ast.parse(path.read_text(), str(path))
    imported, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in imported.items()
            if name not in read and name != "*"]


def test_every_import_is_read():
    root = pathlib.Path(__file__).resolve().parents[1]
    paths = [p for d in ("src/bivas", "tests", "demos")
             for p in sorted((root / d).glob("*.py"))]
    assert len(paths) > 20
    assert [line for p in paths for line in _unread_imports(p)] == []


def test_no_exported_name_aliases_another():
    first = {}
    for name in bivas.__all__:
        obj = getattr(bivas, name)
        assert id(obj) not in first, f"{name} is {first[id(obj)]}"
        first[id(obj)] = name


def test_package_and_cli_import_no_scipy():
    # a fresh interpreter: this one may hold modules other tests loaded
    src = str(pathlib.Path(bivas.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, bivas, bivas.cli; print(sorted("
         "m for m in sys.modules if m.partition('.')[0] == 'scipy'))"],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout.strip() == "[]"
