"""Every module-level import of the histcmi package is read.

A deletion can leave behind an import that nothing reads any more.  No
linter is a dependency here, so an AST walk finds them: a name that a
module-level ``import`` or ``from ... import`` binds must occur as a name
(or the root of an attribute chain) somewhere else in that module, type
annotations included.  ``__init__.py`` is skipped, since its imports are the
package's re-exports.
"""

import ast
from pathlib import Path

import pytest

import histcmi

PACKAGE = Path(histcmi.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module-level imports of ``source`` that it never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds "a"
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_the_walk_sees_an_unused_import():
    assert unused_imports("import os\nimport re\nfrom a import b as c, d\nre.sub\nd()\n") == [
        "line 1: os", "line 3: c"]
    assert unused_imports("from __future__ import annotations\nimport a.b\nx: a.T = 1\n") == []


def test_the_package_has_modules():
    assert len(MODULES) >= 9


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_read(path):
    assert unused_imports(path.read_text()) == []
