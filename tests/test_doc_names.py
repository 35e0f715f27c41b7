"""Names the docs point at still exist.

Every ``:func:``, ``:class:``, ``:meth:`` and ``:mod:`` reference in a
docstring of the histcmi package must resolve: a dotted name from the
docstring's module, from the package or as an absolute import path, and a
bare ``:meth:`` on the class whose docstring or method holds it.  Every
backticked ``module.name`` in README.md whose first part is a histcmi module
must resolve in that module.  A rename or deletion that leaves a doc behind
fails here.
"""

import ast
import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import histcmi

README = Path(__file__).resolve().parent.parent / "README.md"
ROLE = re.compile(r":(func|class|meth|mod):`~?([\w.]+)`")
MODULES = {info.name: importlib.import_module(f"histcmi.{info.name}")
           for info in pkgutil.iter_modules(histcmi.__path__)}


def _has(obj, name: str) -> bool:
    """``obj.name`` exists, a dataclass field without a class default included."""
    if hasattr(obj, name):
        return True
    return dataclasses.is_dataclass(obj) and name in {f.name for f in dataclasses.fields(obj)}


def _resolves(dotted: str, scopes) -> bool:
    """``dotted`` names an attribute chain from one of the objects ``scopes``."""
    first, *rest = dotted.split(".")
    for scope in scopes:
        if not _has(scope, first):
            continue
        obj = getattr(scope, first, None)
        for i, part in enumerate(rest):
            if not _has(obj, part):
                break
            if i < len(rest) - 1:
                obj = getattr(obj, part)
        else:
            return True
    return False


def docstring_references():
    """(module name, enclosing class or None, role, target) of every role
    reference in a docstring of the package, ``histcmi.`` dropped."""
    refs = []
    for name, module in MODULES.items():
        def visit(node, cls):
            for role, target in ROLE.findall(ast.get_docstring(node, clean=False) or ""):
                refs.append((name, cls, role, target.removeprefix("histcmi.")))
            for child in node.body:
                if isinstance(child, ast.ClassDef):
                    visit(child, child.name)
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    visit(child, cls)
        visit(ast.parse(Path(module.__file__).read_text()), None)
    return refs


def readme_references():
    """Every backticked ``module.name`` of README.md whose module is histcmi's."""
    return sorted({(m.group(1), m.group(2)) for m in
                   re.finditer(r"`(?:histcmi\.)?(\w+)\.([\w.]+)`", README.read_text())
                   if m.group(1) in MODULES})


def test_the_docs_hold_references():
    assert len(docstring_references()) >= 25
    assert len(readme_references()) >= 4


@pytest.mark.parametrize("module,cls,role,target", docstring_references(),
                         ids=lambda v: v or "")
def test_docstring_reference_resolves(module, cls, role, target):
    scopes = [MODULES[module], histcmi]
    if role == "meth" and cls is not None and "." not in target:
        scopes = [getattr(MODULES[module], cls)]
    assert _resolves(target, scopes), f"histcmi.{module}: :{role}:`{target}` names nothing"


@pytest.mark.parametrize("module,name", readme_references())
def test_readme_reference_resolves(module, name):
    assert _resolves(name, [MODULES[module]]), f"README: `{module}.{name}` names nothing"
