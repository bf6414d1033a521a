"""Layout guard: src/abcgroups holds no code that only tests call.

Every name a submodule defines at module level, which includes every name
in its __all__, must be referenced somewhere in src/abcgroups outside its
own definition, the __all__ lists and the package __init__.  Every method
of a class defined there must be referenced outside its own body; dunder
methods are exempt, and so are overrides of a base class from outside the
package (argparse calls _Parser.error).  A helper that only tests need
belongs in tests/.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "abcgroups"


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


def _reference_counts(node) -> Counter:
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def uncalled_methods(src: Path = SRC, package: str = "abcgroups") -> list[str]:
    """module:Class.method for each method with no reference outside its body."""
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(src.glob("*.py"))
        if path.name != "__init__.py"
    }
    total = sum((_reference_counts(tree) for tree in trees.values()), Counter())
    out = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
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
                if total[name] == _reference_counts(node)[name]:
                    out.append(f"{module}:{cls.name}.{name}")
    return out


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
    (pkg / "mod.py").write_text(
        "import argparse\n\n\n"
        "class Parser(argparse.ArgumentParser):\n"
        "    def error(self, message):\n        raise SystemExit(2)\n\n\n"
        "class Box:\n"
        "    def __len__(self):\n        return self.used()\n\n"
        "    def used(self):\n        return 1\n\n"
        "    def orphan(self):\n        return self.orphan()\n",
        encoding="utf-8",
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    assert uncalled_methods(pkg, "layout_probe") == ["mod:Box.orphan"]
