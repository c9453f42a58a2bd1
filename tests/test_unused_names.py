"""Every module-level function and class of the package, and every method
of such a class that is not a dunder, is named somewhere outside its own
definition: in src/, demos/, perfbench/ or README.md.  The tests do not
count, so a leftover that only its own body or a test names fails here."""

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
