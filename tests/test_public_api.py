"""Every public function, class, method or property in the library is used or documented.

Code used only by the tests belongs in the tests: a public top-level name
in src/groupmix, or a public member of a class there, must be referenced
from code in src, scripts/ or perfbench/, or be named in README.md.  An
import, a docstring or a string (such as an `__all__` entry) is no
reference, and neither is a name's use inside its own definition.
"""

from __future__ import annotations

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "groupmix"


def _referenced_names(stmt: ast.stmt) -> set[str]:
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _unused_public_names() -> list[str]:
    code = sorted(SRC.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    code += sorted((ROOT / "perfbench").rglob("*.py"))
    # one entry per top-level statement, so a definition's own body can be left out
    statements = []
    # (qualname, definition, the top-level statement holding it, the statements beside it there)
    public = []
    for path in code:
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            statements.append((stmt, _referenced_names(stmt)))
            defines = isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            if defines and path.parent == SRC and not stmt.name.startswith("_"):
                public.append((f"{path.stem}.{stmt.name}", stmt, stmt, []))
                members = stmt.body if isinstance(stmt, ast.ClassDef) else []
                public += [(f"{path.stem}.{stmt.name}.{m.name}", m, stmt, members)
                           for m in members
                           if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
    readme = (ROOT / "README.md").read_text()

    def referenced(defn, holder, beside):
        if any(defn.name in names for stmt, names in statements if stmt is not holder):
            return True
        return any(defn.name in _referenced_names(s) for s in beside if s is not defn)

    return [
        qualname
        for qualname, defn, holder, beside in public
        if not referenced(defn, holder, beside) and not re.search(rf"\b{defn.name}\b", readme)
    ]


def test_every_public_name_is_used_or_documented():
    assert _unused_public_names() == []


def test_the_guard_sees_through_imports_and_strings():
    # __init__.py imports every exported name and lists it in __all__; neither
    # counts, so a name only the package namespace holds is still reported
    tree = ast.parse("from groupmix.boost import f\n__all__ = ['f']\n'''f is documented'''\n")
    assert all("f" not in _referenced_names(stmt) for stmt in tree.body)
    assert "f" in _referenced_names(ast.parse("y = f(1)").body[0])
    assert "f" in _referenced_names(ast.parse("y = boost.f").body[0])
