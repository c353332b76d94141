"""Every private module-level helper in transvect has a caller, every
function reads each of its parameters, every name a module imports is
read in it, and no private name crosses a module.

A function or class whose name starts with ``_`` is internal, so if no
code in the package names it outside its own definition, nothing can
reach it and it should be deleted.  A parameter that a function never
reads is a setting no caller can use; it is deleted too, or named with
a leading ``_`` where a fixed call signature needs it.  A private name
that another module imports or reads is a layout fact with two owners;
it is made public, or the fact moves to the module that defines it.
"""

import ast
import re
from pathlib import Path

import transvect

SRC = Path(transvect.__file__).parent


def _private_definitions(tree):
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [node for node in tree.body
            if isinstance(node, kinds) and node.name.startswith("_")]


def _orphans(src_dir):
    sources = {path: path.read_text().splitlines()
               for path in sorted(src_dir.glob("*.py"))}
    orphans = []
    for path, lines in sources.items():
        for node in _private_definitions(ast.parse("\n".join(lines))):
            own = range(node.lineno - 1, node.end_lineno)
            name = re.compile(r"\b%s\b" % re.escape(node.name))
            used = any(name.search(line)
                       for other, text in sources.items()
                       for k, line in enumerate(text)
                       if other != path or k not in own)
            if not used:
                orphans.append("%s:%d %s" % (path.name, node.lineno, node.name))
    return orphans


def test_no_orphan_private_helpers():
    assert _orphans(SRC) == []


def test_a_planted_orphan_is_found(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _used():\n    return _used()\n\n\n"
        "def _caller():\n    pass\n\n\nVALUE = _caller\n")
    (tmp_path / "b.py").write_text("class _Lonely:\n    _Lonely = 1\n")
    assert _orphans(tmp_path) == ["a.py:1 _used", "b.py:1 _Lonely"]


def _unread_imports(src_dir):
    """Names that a module other than ``__init__`` imports and never
    reads; ``__future__`` imports are switches, not names."""
    unread = []
    for path in sorted(src_dir.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        reads = {n.id for n in ast.walk(tree)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"):
                continue
            names = [(a.asname or a.name).split(".")[0] for a in node.names]
            unread += ["%s:%d %s" % (path.name, node.lineno, name)
                       for name in names if name not in reads]
    return unread


def test_every_import_is_read():
    assert _unread_imports(SRC) == []


def test_a_planted_unread_import_is_found(tmp_path):
    (tmp_path / "a.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\nimport json as js\n"
        "from .b import used, unused\nfrom .c import (kept,\n    dropped)\n"
        "\n\ndef f():\n    return used, kept, os.path\n")
    (tmp_path / "__init__.py").write_text("from .a import f\n")
    assert _unread_imports(tmp_path) == [
        "a.py:3 js", "a.py:4 unused", "a.py:5 dropped"]


def _only_raises(body):
    """A body that is one raise, after an optional docstring: an
    abstract stub or an immutability guard."""
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)):
        body = body[1:]
    return len(body) == 1 and isinstance(body[0], ast.Raise)


def _unread_parameters(src_dir):
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    unread = []
    for path in sorted(src_dir.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, kinds):
                continue
            body = node.body if isinstance(node.body, list) else [node.body]
            if _only_raises(body):
                continue
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args
                      + args.kwonlyargs + [args.vararg, args.kwarg] if a]
            reads = {n.id for stmt in body for n in ast.walk(stmt)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            name = getattr(node, "name", "<lambda>")
            unread += ["%s:%d %s %s" % (path.name, node.lineno, name, p)
                       for p in params
                       if p not in reads and p not in ("self", "cls")
                       and not p.startswith("_")]
    return unread


def test_every_parameter_is_read():
    assert _unread_parameters(SRC) == []


def test_a_planted_unread_parameter_is_found(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used(a, _b, self=None):\n    return a\n\n\n"
        "def stub(x):\n    \"\"\"Abstract.\"\"\"\n    raise NotImplementedError\n"
        "\n\ndef planted(a, b, *rest, **kw):\n    return a\n\n\n"
        "VALUE = lambda x, y: x\n")
    assert _unread_parameters(tmp_path) == [
        "a.py:10 planted b", "a.py:10 planted rest", "a.py:10 planted kw",
        "a.py:14 <lambda> y"]


def _is_private(name):
    return name.startswith("_") and not name.endswith("__")


def _private_crossings(src_dir):
    """``from .x import _name`` lines, and ``obj._attr`` reads of an
    attribute that no def, class or assignment in the module names."""
    crossings = []
    for path in sorted(src_dir.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        own = ({n.name for n in nodes if isinstance(n, defs)}
               | {n.id for n in nodes if isinstance(n, ast.Name)
                  and isinstance(n.ctx, ast.Store)}
               | {n.attr for n in nodes if isinstance(n, ast.Attribute)
                  and isinstance(n.ctx, ast.Store)})
        found = []
        for n in nodes:
            if isinstance(n, ast.ImportFrom):
                found += [(n.lineno, n.col_offset, "imports " + a.name)
                          for a in n.names if _is_private(a.name)]
            elif (isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
                  and _is_private(n.attr) and n.attr not in own):
                found.append((n.lineno, n.col_offset, "reads ." + n.attr))
        crossings += ["%s:%d %s" % (path.name, line, what)
                      for line, _, what in sorted(found)]
    return crossings


def test_no_private_name_crosses_a_module():
    assert _private_crossings(SRC) == []


def test_a_planted_private_crossing_is_found(tmp_path):
    (tmp_path / "a.py").write_text(
        "_LIMIT = 3\n\n\nclass Box:\n    def _peek(self):\n"
        "        self._seen = True\n        return self._seen, self.__class__\n"
        "\n\ndef _helper(box):\n    return box._peek(), _LIMIT\n")
    (tmp_path / "b.py").write_text(
        "from .a import Box, _helper\n\n\n"
        "def use(box):\n    return _helper(box), box._peek(), box._seen\n")
    assert _private_crossings(tmp_path) == [
        "b.py:1 imports _helper", "b.py:5 reads ._peek", "b.py:5 reads ._seen"]
