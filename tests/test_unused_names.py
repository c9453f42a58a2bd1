"""Every module-level function and class of the package, and every method
of such a class that is not a dunder, is named somewhere outside its own
definition: in src/, demos/, perfbench/ or README.md.  The tests do not
count, so a leftover that only its own body or a test names fails here.

Every name a module-level import of a package module binds is read in that
module or re-exported to another package module, so an import whose last
reader is deleted fails here too."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _definitions(tree: ast.Module):
    """(qualified name, node) of each top-level def or class and of each
    non-dunder method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("__"):
                    yield f"{node.name}.{member.name}", member


def unnamed(modules: dict[str, str], corpus: dict[str, str]) -> list[str]:
    """'file:line name' for each definition of modules (see _definitions)
    that no line of corpus names outside the definition's own lines
    (decorators included).  modules maps a path to its source and is part
    of corpus."""
    out = []
    for path, source in modules.items():
        for qualname, node in _definitions(ast.parse(source)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            if not any(
                word.search(line)
                for other, text in corpus.items()
                for i, line in enumerate(text.splitlines(), 1)
                if not (other == path and first <= i <= node.end_lineno)
            ):
                out.append(f"{path}:{node.lineno} {qualname}")
    return out


def unread_imports(modules: dict[str, str]) -> list[str]:
    """'file:line name' for each name bound by a top-level import of
    modules (from __future__ aside) that its module never reads and that no
    other module of modules imports from it (`from .mod import name`) or
    reads as `mod.name`.  modules maps a path to its source; a module's
    name is its file stem, and __init__.py, whose imports make up the
    package's public names, is not checked."""
    trees = {path: ast.parse(source) for path, source in modules.items()}
    exported = set()  # (module name, name)
    for tree in trees.values():
        aliases = {}  # local name -> package module, from `from . import mod`
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module:
                        exported.add((node.module, alias.name))
                    else:
                        aliases[alias.asname or alias.name] = alias.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in aliases:
                    exported.add((aliases[node.value.id], node.attr))
    out = []
    for path, tree in trees.items():
        module = Path(path).stem
        if module == "__init__":
            continue
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            out += [
                f"{path}:{node.lineno} {name}"
                for name in bound
                if name not in read and (module, name) not in exported
            ]
    return out


def _package_modules() -> dict[str, str]:
    files = sorted((ROOT / "src" / "morava_k2").glob("*.py"))
    return {str(f.relative_to(ROOT)): f.read_text() for f in files}


def test_every_package_import_is_read_or_re_exported():
    modules = _package_modules()
    assert len(modules) >= 7
    assert unread_imports(modules) == []


def test_a_planted_unread_import_is_found():
    planted = (
        "from __future__ import annotations\n"
        "\n"
        "import os\n"
        "import sys as system\n"
        "from collections import Counter, namedtuple\n"
        "from .base import helper, tool\n"
        "\n"
        "Pair = namedtuple('Pair', 'a b')\n"
        "print(system.argv)\n"
    )
    user = "from . import planted as pl\nfrom .planted import helper\n\nhelper(pl.tool)\n"
    modules = {"planted.py": planted, "user.py": user, "__init__.py": "from .user import helper\n"}
    assert unread_imports(modules) == ["planted.py:3 os", "planted.py:5 Counter"]
    # once user.py stops importing helper, nothing reads planted's
    modules["user.py"] = "from . import planted as pl\n\nprint(pl.tool)\n"
    assert unread_imports(modules) == [
        "planted.py:3 os", "planted.py:5 Counter", "planted.py:6 helper"
    ]


def test_every_package_function_and_class_is_named_outside_its_definition():
    files = [ROOT / "README.md"]
    for top in ("src", "demos", "perfbench"):
        files += sorted(f for f in (ROOT / top).rglob("*") if f.suffix in (".py", ".md"))
    corpus = {str(f.relative_to(ROOT)): f.read_text() for f in files}
    modules = {k: v for k, v in corpus.items() if k.startswith("src/morava_k2/") and k.endswith(".py")}
    assert len(modules) >= 7
    assert unnamed(modules, corpus) == []


def test_a_planted_leftover_is_found():
    module = (
        "def leftover(a):\n"
        "    return leftover(a - 1) if a else 0\n"
        "\n"
        "\n"
        "@functools.cache\n"
        "def helper():\n"
        "    return 1\n"
        "\n"
        "\n"
        "VALUE = helper()\n"
        "\n"
        "\n"
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.size = 0\n"
        "\n"
        "    def grow(self):\n"
        "        return self.grow() if self.size else 1\n"
        "\n"
        "\n"
        "Box().size\n"
    )
    corpus = {"planted.py": module, "README.md": "mentions nothing relevant\n"}
    assert unnamed({"planted.py": module}, corpus) == [
        "planted.py:1 leftover",
        "planted.py:17 Box.grow",
    ]
    corpus["README.md"] += "see leftover and grow\n"
    assert unnamed({"planted.py": module}, corpus) == []
