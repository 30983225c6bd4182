"""Every public function, class, method, property or dataclass field in the library is used or
documented.

Code used only by the tests belongs in the tests: a public top-level name
in src/groupmix, or a public member of a class there, must be referenced
from code in src, scripts/ or perfbench/, or be named in README.md.  An
import, a docstring or a string (such as an `__all__` entry) is no
reference, and neither is a name's use inside its own definition.  A public
field of a dataclass there must be read as an attribute or passed as a
keyword by that code, or be named in README.md: a field that is only
written holds nothing any caller looks at.
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


def _code() -> list[pathlib.Path]:
    code = sorted(SRC.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    return code + sorted((ROOT / "perfbench").rglob("*.py"))


def _unused_public_names() -> list[str]:
    code = _code()
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


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(ast.unparse(d).startswith("dataclass") for d in cls.decorator_list)


def _read_names(tree: ast.AST) -> set[str]:
    """Attribute names that tree loads, and keyword names that its calls pass."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg:
            names.add(node.arg)
    return names


def _unread_dataclass_fields() -> list[str]:
    read, fields = set(), []
    for path in _code():
        tree = ast.parse(path.read_text(), filename=str(path))
        read |= _read_names(tree)
        if path.parent == SRC:
            fields += [(f"{path.stem}.{stmt.name}.{f.target.id}", f.target.id)
                       for stmt in tree.body if isinstance(stmt, ast.ClassDef) and _is_dataclass(stmt)
                       for f in stmt.body
                       if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)
                       and not f.target.id.startswith("_")]
    readme = (ROOT / "README.md").read_text()
    return [qualname for qualname, name in fields
            if name not in read and not re.search(rf"\b{name}\b", readme)]


def test_every_public_name_is_used_or_documented():
    assert _unused_public_names() == []


def test_every_dataclass_field_is_read_or_documented():
    assert _unread_dataclass_fields() == []


def test_the_guard_sees_through_imports_and_strings():
    # __init__.py imports every exported name and lists it in __all__; neither
    # counts, so a name only the package namespace holds is still reported
    tree = ast.parse("from groupmix.boost import f\n__all__ = ['f']\n'''f is documented'''\n")
    assert all("f" not in _referenced_names(stmt) for stmt in tree.body)
    assert "f" in _referenced_names(ast.parse("y = f(1)").body[0])
    assert "f" in _referenced_names(ast.parse("y = boost.f").body[0])


def test_the_field_guard_counts_reads_not_writes():
    # a field set positionally or assigned as an attribute is not read; a load or a keyword is
    assert "f" not in _read_names(ast.parse("r = R(1, 2)\nr.f = 3\n"))
    assert "f" in _read_names(ast.parse("y = r.f"))
    assert "f" in _read_names(ast.parse("r = R(f=1)"))
