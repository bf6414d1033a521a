"""Layout guard: src/abcgroups holds no code that only tests call.

Every name a submodule defines at module level, which includes every name
in its __all__, must be referenced somewhere in src/abcgroups outside its
own definition, the __all__ lists and the package __init__.  Every method
of a class defined there must be referenced outside its own body; dunder
methods are exempt, and so are overrides of a base class from outside the
package (argparse calls _Parser.error).  Two kinds of name do not count as
a reference to a method: a field definition (an annotated name in a class
body), and an attribute that is not called when its name is also a field
or self.x name, since obj.x then most likely reads that field.  Every
field (an annotated name in a class body, which covers dataclass and
NamedTuple fields) and every self.x attribute must be read as an attribute
somewhere in src/abcgroups or bench/, which reads ctx.family, or, for a
NamedTuple field, be unpacked there by place: a, b, ... = f(...), one
name per field, where f is the class or a function annotated to return
it, reads each field whose name is not _.  A read
through a resolved receiver counts as a read of that field only for the
receiver's class C and its bases: self.x in the methods of C, and x.f in a
function where every binding of the name x is x = C(...) or the parameter
x: C.  A helper that only tests need belongs in tests/.  No module imports
a name it does not use.

Other receivers, unannotated parameters among them, are matched by name,
so a field that shares its name with one read elsewhere through such a
receiver passes unseen.  Methods are matched by name for every receiver,
self included, because self.f() in a base class also calls the overrides
of f.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "abcgroups"
BENCH = ROOT / "bench"


def _defined_names(node) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _referenced_names(node) -> set[str]:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def uncalled_names(src: Path = SRC) -> list[str]:
    """module:name for each module-level name with no reference elsewhere."""
    # (module, top-level statement, names it defines, names it references)
    statements = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            defined = _defined_names(node)
            if defined == ["__all__"]:
                continue
            statements.append((path.stem, node, defined, _referenced_names(node)))
    out = []
    for module, node, defined, _ in statements:
        for name in defined:
            if name.startswith("__") and name.endswith("__"):
                continue
            if not any(
                name in refs for _, other, _, refs in statements if other is not node
            ):
                out.append(f"{module}:{name}")
    return out


def _module_trees(src: Path) -> dict[str, ast.Module]:
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(src.glob("*.py"))
        if path.name != "__init__.py"
    }


def _classes(tree: ast.Module) -> list[ast.ClassDef]:
    return [node for node in tree.body if isinstance(node, ast.ClassDef)]


def _annotated_names(cls: ast.ClassDef) -> list[ast.Name]:
    return [
        node.target
        for node in cls.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
    ]


def _self_attributes(cls: ast.ClassDef) -> list[ast.Attribute]:
    """Every self.x node in the methods of the class."""
    return [
        sub
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute)
        and isinstance(sub.value, ast.Name)
        and sub.value.id == "self"
    ]


def _class_fields(cls: ast.ClassDef) -> list[str]:
    """Annotated names in the class body, then self.x targets in its methods."""
    out = [target.id for target in _annotated_names(cls)]
    out += [
        sub.attr for sub in _self_attributes(cls) if isinstance(sub.ctx, ast.Store)
    ]
    return list(dict.fromkeys(out))


def _lineages(trees) -> dict[str, set[str]]:
    """Class name -> the class and its bases defined in the package."""
    bases = {
        cls.name: [base.id for base in cls.bases if isinstance(base, ast.Name)]
        for tree in trees
        for cls in _classes(tree)
    }

    def lineage(name: str) -> set[str]:
        out = {name}
        for base in bases.get(name, ()):
            out |= lineage(base)
        return out

    return {name: lineage(name) for name in bases}


def _reference_counts(node, fields: set[str]) -> Counter:
    called = {id(sub.func) for sub in ast.walk(node) if isinstance(sub, ast.Call)}
    definitions = {
        id(target)
        for cls in ast.walk(node)
        if isinstance(cls, ast.ClassDef)
        for target in _annotated_names(cls)
    }
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and id(sub) not in definitions:
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and (
            id(sub) in called or sub.attr not in fields
        ):
            out[sub.attr] += 1
    return out


def uncalled_methods(src: Path = SRC, package: str = "abcgroups") -> list[str]:
    """module:Class.method for each method with no reference outside its body."""
    trees = _module_trees(src)
    fields = {
        name
        for tree in trees.values()
        for cls in _classes(tree)
        for name in _class_fields(cls)
    }
    total = sum(
        (_reference_counts(tree, fields) for tree in trees.values()), Counter()
    )
    out = []
    for module, tree in trees.items():
        for cls in _classes(tree):
            live = getattr(importlib.import_module(f"{package}.{module}"), cls.name)
            outside = [
                base
                for base in live.__mro__[1:]
                if base.__module__.split(".")[0] != package
            ]
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef):
                    continue
                name = node.name
                if name.startswith("__") and name.endswith("__"):
                    continue
                if any(name in vars(base) for base in outside):
                    continue
                if total[name] == _reference_counts(node, fields)[name]:
                    out.append(f"{module}:{cls.name}.{name}")
    return out


def _resolved_receivers(tree: ast.Module, classes) -> dict[int, str]:
    """id of each attribute node x.f -> C, where every binding of the name x
    in the function that binds it is x = C(...) or the parameter x: C, for
    one class C in classes."""
    out = {}
    # ast.walk visits an outer function before the functions nested in it,
    # so a name an inner function binds again is decided there
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        built = {
            id(node.targets[0]): node.value.func.id
            for node in ast.walk(fn)
            if isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Name)
            and node.value.func.id in classes
        }
        bindings: dict[str, set] = {}
        for node in ast.walk(fn):
            if isinstance(node, ast.arg):
                hint = node.annotation
                annotated = isinstance(hint, ast.Name) and hint.id in classes
                bindings.setdefault(node.arg, set()).add(
                    hint.id if annotated else None
                )
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bindings.setdefault(node.id, set()).add(built.get(id(node)))
        for node in ast.walk(fn):
            if not (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in bindings
            ):
                continue
            bound = bindings[node.value.id]
            if None in bound or len(bound) > 1:
                out.pop(id(node), None)
            else:
                out[id(node)] = next(iter(bound))
    return out


def _unpacking_returns(trees) -> tuple[dict[str, list[str]], dict[str, str]]:
    """The NamedTuple classes, name -> fields, and name -> class for each
    of them and each function or method annotated to return one."""
    fields = {
        cls.name: [target.id for target in _annotated_names(cls)]
        for tree in trees
        for cls in _classes(tree)
        if any(isinstance(b, ast.Name) and b.id == "NamedTuple" for b in cls.bases)
    }
    returns = {name: name for name in fields}
    for tree in trees:
        for fn in ast.walk(tree):
            if (
                isinstance(fn, ast.FunctionDef)
                and isinstance(fn.returns, ast.Name)
                and fn.returns.id in fields
            ):
                returns[fn.name] = fn.returns.id
    return fields, returns


def _unpacked_fields(tree: ast.Module, fields, returns) -> set[tuple[str, str]]:
    """(class, field) for each field that an assignment a, b, ... = f(...)
    binds to a name other than _, where f returns that class's NamedTuple
    and there is one name per field."""
    out = set()
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Tuple)
            and isinstance(node.value, ast.Call)
        ):
            continue
        func = node.value.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        cls = returns.get(name)
        names = node.targets[0].elts
        if cls is None or len(names) != len(fields[cls]):
            continue
        out.update(
            (cls, field)
            for target, field in zip(names, fields[cls])
            if isinstance(target, ast.Name) and target.id != "_"
        )
    return out


def unread_fields(src: Path = SRC, readers=(SRC, BENCH)) -> list[str]:
    """module:Class.field for each field or self.x attribute that no
    attribute load in the reader directories reads, and no unpacking there
    of a call that returns the field's NamedTuple binds to a name."""
    trees = _module_trees(src)
    lineages = _lineages(trees.values())
    named_tuples, returns = _unpacking_returns(trees.values())
    loads = set()  # names read through a receiver that is not resolved
    resolved_loads = set()  # (class, name) for each resolved read of name
    for folder in readers:
        for path in sorted(folder.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            resolved_loads |= _unpacked_fields(tree, named_tuples, returns)
            owner = _resolved_receivers(tree, lineages)
            owner.update(
                (id(sub), cls.name)
                for cls in _classes(tree)
                for sub in _self_attributes(cls)
            )
            for sub in ast.walk(tree):
                if not (isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)):
                    continue
                if id(sub) not in owner:
                    loads.add(sub.attr)
                    continue
                reader = owner[id(sub)]
                for cls in lineages.get(reader, {reader}):
                    resolved_loads.add((cls, sub.attr))
    return [
        f"{module}:{cls.name}.{name}"
        for module, tree in trees.items()
        for cls in _classes(tree)
        for name in _class_fields(cls)
        if name not in loads and (cls.name, name) not in resolved_loads
    ]


def unused_imports(src: Path = SRC) -> list[str]:
    """module:name for each name a module imports and never uses.

    A use is a Name node anywhere in the module, which covers attribute
    chains (os.path starts with the Name os) and annotations, or an entry of
    its __all__; __future__ imports and the package __init__ are exempt.
    """
    out = []
    for module, tree in _module_trees(src).items():
        used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        for node in tree.body:
            if _defined_names(node) == ["__all__"]:
                used |= {elt.value for elt in node.value.elts}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        out.append(f"{module}:{name}")
    return out


def test_every_import_is_used():
    assert unused_imports() == []


def test_guard_flags_an_unused_import(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from __future__ import annotations\n\n"
        "import os.path\n"
        "import json as js\n"
        "from functools import cached_property, reduce\n"
        "from math import gcd, prod\n"
        "from .linalg import charpoly, mat_add\n\n"
        '__all__ = ["mat_add"]\n\n\n'
        "def f(xs) -> js.JSONDecoder:\n"
        "    return os.path.join(*xs), gcd(*xs)\n",
        encoding="utf-8",
    )
    (tmp_path / "__init__.py").write_text("from .mod import unused\n")
    assert unused_imports(tmp_path) == [
        "mod:cached_property",
        "mod:reduce",
        "mod:prod",
        "mod:charpoly",
    ]


def test_every_module_level_name_has_a_caller_in_src():
    assert uncalled_names() == []


def test_guard_flags_a_name_only_tests_call(tmp_path):
    (tmp_path / "mod.py").write_text(
        '__all__ = ["used", "orphan"]\n\n\n'
        "def used():\n    return 1\n\n\n"
        "def orphan():\n    return orphan() + used()\n",
        encoding="utf-8",
    )
    (tmp_path / "__init__.py").write_text("from .mod import orphan, used\n")
    assert uncalled_names(tmp_path) == ["mod:orphan"]


def test_every_method_has_a_caller_in_src():
    assert uncalled_methods() == []


def test_guard_flags_a_method_only_tests_call(tmp_path, monkeypatch):
    pkg = tmp_path / "layout_probe"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    # Ctx.element is named only by a field definition and a read of that
    # field; Ctx.shift is called, so the field of that name does not hide it
    (pkg / "mod.py").write_text(
        "import argparse\n"
        "from dataclasses import dataclass\n\n\n"
        "class Parser(argparse.ArgumentParser):\n"
        "    def error(self, message):\n        raise SystemExit(2)\n\n\n"
        "class Box:\n"
        "    def __len__(self):\n        return self.used()\n\n"
        "    def used(self):\n        return 1\n\n"
        "    def orphan(self):\n        return self.orphan()\n\n\n"
        "class Ctx:\n"
        "    def element(self):\n        return 1\n\n"
        "    def shift(self):\n        return 2\n\n\n"
        "@dataclass\n"
        "class Translate:\n"
        "    element: int\n"
        "    shift: int\n\n\n"
        "def read(obj, ctx):\n    return obj.element + obj.shift + ctx.shift()\n",
        encoding="utf-8",
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    assert uncalled_methods(pkg, "layout_probe") == ["mod:Box.orphan", "mod:Ctx.element"]


def test_every_field_is_read_in_src_or_bench():
    assert unread_fields() == []


def test_guard_flags_a_field_only_tests_read(tmp_path):
    src = tmp_path / "src"
    bench = tmp_path / "bench"
    src.mkdir()
    bench.mkdir()
    (src / "mod.py").write_text(
        "from dataclasses import dataclass\n"
        "from typing import NamedTuple\n\n\n"
        "@dataclass\n"
        "class Box:\n    size: int\n    orphan: int\n\n\n"
        "class Pair(NamedTuple):\n    left: int\n    right: int\n\n\n"
        "class Span(NamedTuple):\n    lo: int\n    hi: int\n    step: int\n\n\n"
        "def span() -> Span:\n    return Span(0, 1, 1)\n\n\n"
        "def width():\n"
        "    lo, _, step = span()\n"
        "    left, right = span()\n"
        "    return step - lo + left + right\n\n\n"
        "class Index:\n"
        "    family: str = ''\n\n"
        "    def __init__(self, ctx, radius):\n"
        "        self.ctx = ctx\n"
        "        self.radius = radius\n"
        "        self.width = 0\n\n"
        "    def __len__(self):\n        return self.radius\n\n\n"
        "class Shell(Index):\n"
        "    def outer(self):\n        return self.width\n\n\n"
        "@dataclass\n"
        "class FolnerBox:\n    elements: frozenset\n    n: int\n\n\n"
        "@dataclass\n"
        "class TranslateReport:\n    n: int\n\n"
        "    def row(self):\n        return [self.n]\n\n\n"
        "def use(box, pair, shell, folner, report):\n"
        "    return box.size + pair.left + shell.outer() + report.row(), folner.elements\n",
        encoding="utf-8",
    )
    (bench / "probe.py").write_text("def probe(index):\n    return index.family\n")
    # TranslateReport reads self.n, which does not count for FolnerBox.n;
    # Shell reads self.width, which counts for its base Index; width()
    # unpacks a Span into lo and step, but not hi, which it binds to _, and
    # its two names for a three-field Span read none of them
    assert unread_fields(src, (src, bench)) == [
        "mod:Box.orphan",
        "mod:Pair.right",
        "mod:Span.hi",
        "mod:Index.ctx",
        "mod:FolnerBox.n",
    ]
    assert unread_fields(src, (src,)) == [
        "mod:Box.orphan",
        "mod:Pair.right",
        "mod:Span.hi",
        "mod:Index.family",
        "mod:Index.ctx",
        "mod:FolnerBox.n",
    ]


def test_guard_resolves_constructor_bound_receivers(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from dataclasses import dataclass\n"
        "from typing import NamedTuple\n\n\n"
        "class Element(NamedTuple):\n    kpart: int\n    texp: int\n\n\n"
        "@dataclass(frozen=True)\n"
        "class QuotientDescriptor:\n    diag: tuple\n    texp: int\n\n"
        "    def coords(self, v):\n        return v % self.diag[0]\n\n\n"
        "@dataclass\n"
        "class Box:\n    width: int\n\n\n"
        "@dataclass\n"
        "class Pane:\n    width: int\n\n\n"
        "def texp_of(g: Element):\n    return g.texp\n\n\n"
        "def key(kpart, texp):\n"
        "    g = Element(kpart, texp)\n"
        "    qd = QuotientDescriptor((3,), g.texp)\n"
        "    return g.texp, qd.coords(g.kpart)\n\n\n"
        "def rebound(pane):\n"
        "    box = Box(1)\n"
        "    if pane:\n        box = pane\n"
        "    return box.width\n",
        encoding="utf-8",
    )
    # g.texp reads Element.texp only, for g = Element(...) and for g: Element;
    # box may be a Pane, so box.width is matched by name and counts for
    # Pane.width too
    assert unread_fields(tmp_path, (tmp_path,)) == ["mod:QuotientDescriptor.texp"]
