"""Every private module-level helper in transvect has a caller.

A function or class whose name starts with ``_`` is internal, so if no
code in the package names it outside its own definition, nothing can
reach it and it should be deleted.
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
