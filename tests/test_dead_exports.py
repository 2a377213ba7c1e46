"""Every top-level function and class of a `freestoch` module, private ones
included, is used elsewhere in `src/` or exported from `freestoch/__init__.py`,
so a helper cannot outlive its last caller, and every method of a class is
read as an attribute outside its own body.  A name that only the tests use
belongs in `tests/helpers.py`.  Every name a module other than `__init__`
imports is read in that module, so a deletion leaves no import behind."""

import ast
import pathlib
from collections import Counter

import freestoch

SRC = pathlib.Path(freestoch.__file__).resolve().parent


def _names_used(node) -> set[str]:
    """Names read anywhere under node, bare (f) or as attributes (m.f)."""
    return {sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute))}


def dead_definitions(src: pathlib.Path) -> list[str]:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    exported = {alias.name for node in trees.pop("__init__").body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    # (module, top-level statement, the names it reads)
    statements = [(module, node, _names_used(node))
                  for module, tree in trees.items() for node in tree.body]
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name in exported:
                continue
            if not any(node.name in used for _, other, used in statements if other is not node):
                dead.append(f"{module}.{node.name}")
    return dead


def test_every_public_definition_is_used_or_exported():
    assert dead_definitions(SRC) == []


def test_an_unused_definition_is_reported(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import exported\n")
    (tmp_path / "a.py").write_text("def exported():\n    return helper() + _used()\n\n\n"
                                   "def helper():\n    return 1\n\n\n"
                                   "def _used():\n    return 2\n\n\n"
                                   "def _stale():\n    return helper()\n\n\n"
                                   "def recursive(n):\n    return recursive(n - 1)\n")
    (tmp_path / "b.py").write_text("from . import a\n\n\nclass Unused:\n    x = a.helper\n")
    assert dead_definitions(tmp_path) == ["a._stale", "a.recursive", "b.Unused"]


def _attribute_reads(node) -> Counter:
    """How often each attribute name is read (loaded) under node."""
    return Counter(sub.attr for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load))


def dead_methods(src: pathlib.Path) -> list[str]:
    """module.Class.method for each method of a top-level class, dunders
    aside, whose name `src/` reads as an attribute only inside its own body."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    reads = sum((_attribute_reads(tree) for tree in trees.values()), Counter())
    return [f"{module}.{cls.name}.{fn.name}"
            for module, tree in trees.items() for cls in tree.body if isinstance(cls, ast.ClassDef)
            for fn in cls.body if isinstance(fn, ast.FunctionDef)
            and not (fn.name.startswith("__") and fn.name.endswith("__"))
            and reads[fn.name] == _attribute_reads(fn)[fn.name]]


def test_every_method_is_read():
    assert dead_methods(SRC) == []


def test_an_unread_method_is_reported(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import Shape\n")
    (tmp_path / "a.py").write_text(
        "class Shape:\n"
        "    def __init__(self):\n        self.sides = 0\n\n"
        "    def used(self):\n        return self.helper()\n\n"
        "    def helper(self):\n        return 1\n\n"
        "    @property\n    def stale(self):\n        return 2\n\n"
        "    @classmethod\n    def recursive(cls, n):\n        return cls.recursive(n - 1)\n\n\n"
        "def area():\n    return Shape().used()\n")
    (tmp_path / "b.py").write_text("class Other:\n    def stored(self):\n"
                                   "        self.stored = None\n")
    assert dead_methods(tmp_path) == ["a.Shape.stale", "a.Shape.recursive", "b.Other.stored"]


def unused_imports(src: pathlib.Path) -> list[str]:
    """module.name for each name a module other than `__init__` imports and
    never reads; `from __future__` imports are directives, not names."""
    unused = []
    for path in sorted(src.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.append(f"{path.stem}.{name}")
    return unused


def test_every_import_is_read():
    assert unused_imports(SRC) == []


def test_an_unused_import_is_reported(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import exported\n")
    (tmp_path / "a.py").write_text(
        "from __future__ import annotations\n\nimport functools\nimport math\n"
        "import os.path\nfrom .b import concat, merge as joined\n\n\n"
        "def exported(x):\n    functools = math.pi  # a store is no read\n"
        "    return os.path.join(x)\n\n\n"
        "def later():\n    from .b import unused_inside\n    return joined\n")
    assert unused_imports(tmp_path) == ["a.functools", "a.concat", "a.unused_inside"]


def private_imports(src: pathlib.Path) -> list[str]:
    """module.name for each `_`-prefixed name, dunders aside, that a module
    imports from another module of the package: what a module shares is
    public, and a private name stays in its own module."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                found += [f"{path.stem}.{alias.name}" for alias in node.names
                          if alias.name.startswith("_") and not alias.name.endswith("__")]
    return found


def test_no_module_imports_a_private_name_of_another():
    assert private_imports(SRC) == []


def test_a_private_import_is_reported(tmp_path):
    (tmp_path / "__init__.py").write_text("__version__ = '0'\n")
    (tmp_path / "a.py").write_text(
        "from os import _exit\n\nfrom . import __version__\nfrom .b import _helper, shared\n"
        "from .b import _inner as renamed\n\n\ndef _own():\n    return _exit, _helper\n")
    (tmp_path / "b.py").write_text("def _helper():\n    from .a import _own\n    return _own\n")
    assert private_imports(tmp_path) == ["a._helper", "a._inner", "b._own"]
