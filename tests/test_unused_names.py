"""Every module-level function and class of the package is named somewhere
outside its own definition: in src/, demos/, perfbench/ or README.md.  The
tests do not count, so a leftover that only its own body or a test names
fails here."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unnamed(modules: dict[str, str], corpus: dict[str, str]) -> list[str]:
    """'file:line name' for each top-level def or class of modules that no
    line of corpus names outside the definition's own lines (decorators
    included).  modules maps a path to its source and is part of corpus."""
    out = []
    for path, source in modules.items():
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            if not any(
                word.search(line)
                for other, text in corpus.items()
                for i, line in enumerate(text.splitlines(), 1)
                if not (other == path and first <= i <= node.end_lineno)
            ):
                out.append(f"{path}:{node.lineno} {node.name}")
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
    )
    corpus = {"planted.py": module, "README.md": "mentions nothing relevant\n"}
    assert unnamed({"planted.py": module}, corpus) == ["planted.py:1 leftover"]
    corpus["README.md"] += "see leftover\n"
    assert unnamed({"planted.py": module}, corpus) == []
